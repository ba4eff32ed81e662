package wqrtq

// The context-first request/response API: every public query path of Index
// and Engine is reachable through a *Ctx method taking a context.Context and
// a request struct, returning a response struct carrying the snapshot epoch
// and the wall-clock time spent. These are the primary entry points; Index's
// positional signatures (Index.TopK, Index.WhyNot, ...) are thin wrappers
// delegating here with context.Background().
//
// A query kind is described once, in the kinds table below: its name, the
// request fields it carries (each carried field is validated, by the one
// Index.validate), whether Options enter its cache key, and its executor.
// Both serving paths are written once over that table — Index.serve
// (validate → ctx.Err → answer → stamp) here and Engine.serve (validate →
// key → cache → admit → slot → cache → answer → deposit → observe) in
// serve.go, which calls the same Index.answer — and the sixteen typed *Ctx
// methods only pack a request into a query and unpack the answer.
//
// Cancellation is cooperative: the long-running layers — the branch-and-
// bound heap loop of internal/topk, the per-vector count descents of
// internal/rtopk, and the |S| x |Q| sampling loops of internal/core — poll
// ctx at bounded intervals (every N heap pops / tree nodes / samples), so a
// canceled or deadline-expired request
// unwinds within one check interval while the uncancelable fast path
// (context.Background) pays about one branch per interval. See DESIGN.md,
// "Context-first API and cooperative cancellation".

import (
	"context"
	"time"

	"wqrtq/internal/core"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/skyband"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// TopKRequest asks for the k best points under the weighting vector W.
type TopKRequest struct {
	W []float64
	K int
}

// TopKResponse is the answer to a TopKRequest.
type TopKResponse struct {
	// Epoch identifies the snapshot that produced the result.
	Epoch uint64
	// Elapsed is the wall-clock time the query spent inside the callee
	// (for Engine requests this includes the compute-slot wait).
	Elapsed time.Duration
	// Result holds the k best points in rank order.
	Result []Ranked
}

// RankRequest asks for the 1-based rank the query point Q would take under
// the weighting vector W.
type RankRequest struct {
	W []float64
	Q []float64
}

// RankResponse is the answer to a RankRequest.
type RankResponse struct {
	Epoch   uint64
	Elapsed time.Duration
	Rank    int
}

// ReverseTopKRequest asks the bichromatic reverse top-k query: which of the
// weighting vectors in W rank Q within their top-K?
type ReverseTopKRequest struct {
	Q []float64
	K int
	W [][]float64
}

// ReverseTopKResponse is the answer to a ReverseTopKRequest.
type ReverseTopKResponse struct {
	Epoch   uint64
	Elapsed time.Duration
	// Result holds the indices into W of the matching vectors, ascending.
	Result []int
	// RTA reports the evaluation's statistics (see RTAStats). For engine requests
	// served from the result cache or deduplicated against an identical
	// request, the statistics are those of the computation that produced
	// the shared result.
	RTA RTAStats
}

// ExplainRequest asks, for each weighting vector in Wm, which points score
// strictly better than Q (the first aspect of a why-not question, §3).
type ExplainRequest struct {
	Q  []float64
	Wm [][]float64
}

// ExplainResponse is the answer to an ExplainRequest.
type ExplainResponse struct {
	Epoch        uint64
	Elapsed      time.Duration
	Explanations [][]Ranked
}

// ModifyQueryRequest asks for the first refinement solution (MQP): the
// minimum-penalty modification of the query point Q so that every vector in
// Wm ranks the refined point within its top-K.
type ModifyQueryRequest struct {
	Q    []float64
	K    int
	Wm   [][]float64
	Opts Options
}

// ModifyQueryResponse is the answer to a ModifyQueryRequest.
type ModifyQueryResponse struct {
	Epoch      uint64
	Elapsed    time.Duration
	Refinement QueryRefinement
}

// ModifyPreferencesRequest asks for the second refinement solution (MWK):
// the minimum-penalty modification of Wm and K so that Q enters the top-k'
// of every refined vector.
type ModifyPreferencesRequest struct {
	Q    []float64
	K    int
	Wm   [][]float64
	Opts Options
}

// ModifyPreferencesResponse is the answer to a ModifyPreferencesRequest.
type ModifyPreferencesResponse struct {
	Epoch      uint64
	Elapsed    time.Duration
	Refinement PreferenceRefinement
}

// ModifyAllRequest asks for the third refinement solution (MQWK): the
// simultaneous minimum-penalty modification of Q, Wm and K.
type ModifyAllRequest struct {
	Q    []float64
	K    int
	Wm   [][]float64
	Opts Options
}

// ModifyAllResponse is the answer to a ModifyAllRequest.
type ModifyAllResponse struct {
	Epoch      uint64
	Elapsed    time.Duration
	Refinement FullRefinement
}

// WhyNotRequest asks the complete why-not pipeline for the reverse top-k
// query of Q over W: result, missing vectors, explanations, and all three
// refinements.
type WhyNotRequest struct {
	Q    []float64
	K    int
	W    [][]float64
	Opts Options
}

// WhyNotResponse is the answer to a WhyNotRequest.
type WhyNotResponse struct {
	Epoch   uint64
	Elapsed time.Duration
	Answer  *WhyNotAnswer
}

// kind identifies one of the eight query kinds; kinds[kind] describes it.
type kind uint8

const (
	kindTopK kind = iota
	kindRank
	kindRTopK
	kindExplain
	kindWhyNot
	kindModifyQuery
	kindModifyPreferences
	kindModifyAll
	numKinds
)

// kindSpec is the single description of a query kind.
type kindSpec struct {
	// name is the kind's metrics endpoint (EngineStats.Endpoints, and
	// EngineStats.RTA for the kinds with an rta) and the leading bytes of
	// its cache key.
	name string
	// The request fields the kind carries. Index.validate checks every
	// carried field — w as one weighting vector, set as a non-empty set of
	// them, q as a point, k as positive, opts through Options.resolve — and
	// the typed wrappers leave the others zero. opts is also what puts
	// Options into the cache key.
	w, set, q, k, opts bool
	// run answers a validated query against one snapshot.
	run func(ctx context.Context, ix *Index, a *query) (any, error)
	// rta reads the reverse top-k pruning statistics out of an answer, for
	// the kinds that run an RTA stage; the engine totals them per kind.
	rta func(val any) RTAStats
}

var kinds = [numKinds]kindSpec{
	kindTopK:              {name: "topk", w: true, k: true, run: runTopK},
	kindRank:              {name: "rank", w: true, q: true, run: runRank},
	kindRTopK:             {name: "rtopk", set: true, q: true, k: true, run: runReverseTopK, rta: reverseTopKRTA},
	kindExplain:           {name: "explain", set: true, q: true, run: runExplain},
	kindWhyNot:            {name: "whynot", set: true, q: true, k: true, opts: true, run: runWhyNot, rta: whyNotRTA},
	kindModifyQuery:       {name: "modify_query", set: true, q: true, k: true, opts: true, run: runModifyQuery},
	kindModifyPreferences: {name: "modify_preferences", set: true, q: true, k: true, opts: true, run: runModifyPreferences},
	kindModifyAll:         {name: "modify_all", set: true, q: true, k: true, opts: true, run: runModifyAll},
}

// query is one request of any kind: the union of the typed request structs'
// fields, plus what validation derives from them. A query validated on one
// snapshot is valid on every snapshot of the clone family — dimensionality
// never changes — so the engine validates at its door and answers without
// validating again.
type query struct {
	kind kind
	w    []float64   // the one weighting vector of topk and rank
	set  [][]float64 // W, or Wm for explain and the modify kinds
	q    []float64
	k    int
	opts Options

	// Set by Index.validate: set as typed vectors, opts resolved.
	ws   []vec.Weight
	pm   core.PenaltyModel
	s    int
	seed int64
}

// validate is the one request-boundary check of every kind on both serving
// paths: each failure is tagged ErrInvalidArgument and found before the
// request costs a compute slot or a band build. internal/core keeps its own
// validateInput as the internal packages' guard.
func (ix *Index) validate(a *query) (err error) {
	spec := &kinds[a.kind]
	if spec.w {
		if err = ix.checkWeight(a.w); err != nil {
			return err
		}
	}
	if spec.set {
		if a.ws, err = ix.checkWeights(a.set); err != nil {
			return err
		}
	}
	if spec.q {
		if err = ix.checkPoint(a.q); err != nil {
			return err
		}
	}
	if spec.k && a.k <= 0 {
		return errPositiveK
	}
	if spec.opts {
		a.pm, a.s, a.seed, err = a.opts.resolve()
	}
	return err
}

// answer runs a validated query's executor against this snapshot.
func (ix *Index) answer(ctx context.Context, a *query) (any, error) {
	return kinds[a.kind].run(ctx, ix, a)
}

// serve is the Index request path — validate → ctx.Err → answer → stamp —
// under cooperative cancellation: the executors poll ctx at bounded
// intervals and return ctx.Err() once the context ends.
func (ix *Index) serve(ctx context.Context, a query) (val any, epoch uint64, elapsed time.Duration, err error) {
	start := time.Now()
	epoch = ix.Epoch()
	if err = ix.validate(&a); err != nil {
		return nil, epoch, 0, err
	}
	if err = ctx.Err(); err != nil {
		return nil, epoch, 0, err
	}
	val, err = ix.answer(ctx, &a)
	return val, epoch, time.Since(start), err
}

// server is a serving path: Index.serve or Engine.serve.
type server interface {
	serve(ctx context.Context, a query) (val any, epoch uint64, elapsed time.Duration, err error)
}

// answerAs sends a query down a serving path and types its answer.
func answerAs[T any](ctx context.Context, s server, a query) (res T, epoch uint64, elapsed time.Duration, err error) {
	v, epoch, elapsed, err := s.serve(ctx, a)
	if err == nil {
		res = v.(T)
	}
	return res, epoch, elapsed, err
}

// The typed shape of each kind, written once for both serving paths: pack
// the request into a query, unpack the answer into the response.

func serveTopK(ctx context.Context, s server, req TopKRequest) (TopKResponse, error) {
	res, epoch, elapsed, err := answerAs[[]Ranked](ctx, s, query{kind: kindTopK, w: req.W, k: req.K})
	return TopKResponse{Epoch: epoch, Elapsed: elapsed, Result: res}, err
}

func serveRank(ctx context.Context, s server, req RankRequest) (RankResponse, error) {
	rank, epoch, elapsed, err := answerAs[int](ctx, s, query{kind: kindRank, w: req.W, q: req.Q})
	return RankResponse{Epoch: epoch, Elapsed: elapsed, Rank: rank}, err
}

func serveReverseTopK(ctx context.Context, s server, req ReverseTopKRequest) (ReverseTopKResponse, error) {
	rv, epoch, elapsed, err := answerAs[rtopkVal](ctx, s, query{kind: kindRTopK, set: req.W, q: req.Q, k: req.K})
	return ReverseTopKResponse{Epoch: epoch, Elapsed: elapsed, Result: rv.res, RTA: rv.rta}, err
}

func serveExplain(ctx context.Context, s server, req ExplainRequest) (ExplainResponse, error) {
	ex, epoch, elapsed, err := answerAs[[][]Ranked](ctx, s, query{kind: kindExplain, set: req.Wm, q: req.Q})
	return ExplainResponse{Epoch: epoch, Elapsed: elapsed, Explanations: ex}, err
}

func serveWhyNot(ctx context.Context, s server, req WhyNotRequest) (WhyNotResponse, error) {
	ans, epoch, elapsed, err := answerAs[*WhyNotAnswer](ctx, s, query{kind: kindWhyNot, set: req.W, q: req.Q, k: req.K, opts: req.Opts})
	return WhyNotResponse{Epoch: epoch, Elapsed: elapsed, Answer: ans}, err
}

func serveModifyQuery(ctx context.Context, s server, req ModifyQueryRequest) (ModifyQueryResponse, error) {
	ref, epoch, elapsed, err := answerAs[QueryRefinement](ctx, s, query{kind: kindModifyQuery, set: req.Wm, q: req.Q, k: req.K, opts: req.Opts})
	return ModifyQueryResponse{Epoch: epoch, Elapsed: elapsed, Refinement: ref}, err
}

func serveModifyPreferences(ctx context.Context, s server, req ModifyPreferencesRequest) (ModifyPreferencesResponse, error) {
	ref, epoch, elapsed, err := answerAs[PreferenceRefinement](ctx, s, query{kind: kindModifyPreferences, set: req.Wm, q: req.Q, k: req.K, opts: req.Opts})
	return ModifyPreferencesResponse{Epoch: epoch, Elapsed: elapsed, Refinement: ref}, err
}

func serveModifyAll(ctx context.Context, s server, req ModifyAllRequest) (ModifyAllResponse, error) {
	ref, epoch, elapsed, err := answerAs[FullRefinement](ctx, s, query{kind: kindModifyAll, set: req.Wm, q: req.Q, k: req.K, opts: req.Opts})
	return ModifyAllResponse{Epoch: epoch, Elapsed: elapsed, Refinement: ref}, err
}

// TopKCtx answers a TopKRequest with cooperative cancellation: the
// branch-and-bound search polls ctx every few dozen heap pops and returns
// ctx.Err() once the context ends.
func (ix *Index) TopKCtx(ctx context.Context, req TopKRequest) (TopKResponse, error) {
	return serveTopK(ctx, ix, req)
}

// RankCtx answers a RankRequest with cooperative cancellation.
func (ix *Index) RankCtx(ctx context.Context, req RankRequest) (RankResponse, error) {
	return serveRank(ctx, ix, req)
}

// ReverseTopKCtx answers a ReverseTopKRequest with cooperative cancellation:
// the per-vector loop polls ctx every few vectors and, on the same ticker,
// every few tree nodes inside a long count descent.
func (ix *Index) ReverseTopKCtx(ctx context.Context, req ReverseTopKRequest) (ReverseTopKResponse, error) {
	return serveReverseTopK(ctx, ix, req)
}

// ExplainCtx answers an ExplainRequest with cooperative cancellation.
func (ix *Index) ExplainCtx(ctx context.Context, req ExplainRequest) (ExplainResponse, error) {
	return serveExplain(ctx, ix, req)
}

// ModifyQueryCtx answers a ModifyQueryRequest (Algorithm 1, MQP) with
// cooperative cancellation of the per-vector top k-th searches.
func (ix *Index) ModifyQueryCtx(ctx context.Context, req ModifyQueryRequest) (ModifyQueryResponse, error) {
	return serveModifyQuery(ctx, ix, req)
}

// ModifyPreferencesCtx answers a ModifyPreferencesRequest (Algorithm 2, MWK)
// with cooperative cancellation of the |S|-sample loop.
func (ix *Index) ModifyPreferencesCtx(ctx context.Context, req ModifyPreferencesRequest) (ModifyPreferencesResponse, error) {
	return serveModifyPreferences(ctx, ix, req)
}

// ModifyAllCtx answers a ModifyAllRequest (Algorithm 3, MQWK) with
// cooperative cancellation: ctx is polled before every sample query point
// and inside every sampling loop.
func (ix *Index) ModifyAllCtx(ctx context.Context, req ModifyAllRequest) (ModifyAllResponse, error) {
	return serveModifyAll(ctx, ix, req)
}

// WhyNotCtx answers a WhyNotRequest — the complete pipeline of Index.WhyNot
// — with cooperative cancellation threaded through every stage: the reverse
// top-k evaluation, the explanations, and all three refinement algorithms.
// A canceled request returns ctx.Err() within one check interval of the
// stage it was in.
func (ix *Index) WhyNotCtx(ctx context.Context, req WhyNotRequest) (WhyNotResponse, error) {
	return serveWhyNot(ctx, ix, req)
}

// The executors: one per kind, each answering a validated query.

func runTopK(ctx context.Context, ix *Index, a *query) (any, error) {
	rs, err := topk.TopKCtx(ctx, ix.tree, a.w, a.k)
	if err != nil {
		return nil, err
	}
	return toRanked(rs), nil
}

func runRank(ctx context.Context, ix *Index, a *query) (any, error) {
	w := vec.Weight(a.w)
	return ix.rankResult(ctx, w, vec.Score(w, a.q))
}

// rankResult answers a validated rank query (1 + strict-beat count). With
// the skyband sub-index enabled, the count first runs over the
// DefaultRankBand-skyband — exact whenever it stays below the band bound,
// since any dataset with >= K beaters has >= K of them inside the
// K-skyband — and falls back to the count-pruned full tree otherwise.
func (ix *Index) rankResult(ctx context.Context, w vec.Weight, fq float64) (int, error) {
	sky := ix.sky
	if ix.skyOff {
		sky = nil
	}
	cnt, err := skyband.CountBelowCtx(ctx, sky, ix.tree, w, fq)
	if err != nil {
		return 0, err
	}
	return 1 + cnt, nil
}

// rtopkVal is a reverse top-k answer: the matching indices plus the pruning
// statistics of the run that produced them (shared, in the engine, by cache
// hits and deduplicated co-waiters).
type rtopkVal struct {
	res []int
	rta RTAStats
}

func reverseTopKRTA(val any) RTAStats { return val.(rtopkVal).rta }

func runReverseTopK(ctx context.Context, ix *Index, a *query) (any, error) {
	res, stats, err := ix.bichromatic(ctx, a.ws, a.q, a.k)
	if err != nil {
		return nil, err
	}
	return rtopkVal{res: res, rta: toRTAStats(stats)}, nil
}

// bichromatic answers a validated bichromatic reverse top-k query through
// one of three tiers, which decide membership identically, and never waits
// on a build. With the k-skyband and its cell grid built, each vector is
// counted against its grid cell's candidate superset (see
// internal/cellindex's count-preservation argument). Without a grid —
// none for this band, none yet, or one that declines the query — each
// vector pays one capped count descent (rtopk.BichromaticCountCtx) over the
// band's tree, since the k smallest scores under any vector are achieved
// inside the band; without a band — pass-through, skyOff, or still
// building — over the full tree. A missing band or grid starts its build
// in the background (readyBand, readyGrid). Nothing here reads the
// dimensionality or the band's size.
func (ix *Index) bichromatic(ctx context.Context, W []vec.Weight, q vec.Point, k int) ([]int, rtopk.Stats, error) {
	t := ix.tree
	if b := ix.readyBand(k); b != nil {
		if g := ix.readyGrid(b); g != nil {
			res, scanned, ok, err := g.ReverseTopK(ctx, W, q, k)
			if err != nil {
				return nil, rtopk.Stats{}, err
			}
			if ok {
				ix.kct.Add(len(W), scanned)
				ix.cct.CountLookups(len(W))
				return res, rtopk.Stats{Evaluated: len(W), CandidateSetSize: g.BasisSize()}, nil
			}
			ix.cct.CountFallback()
		}
		t = b.Tree()
	}
	return rtopk.BichromaticCountCtx(ctx, t, W, q, k)
}

func runExplain(ctx context.Context, ix *Index, a *query) (any, error) {
	return ix.explain(ctx, a.ws, a.q)
}

// explain lists, per weighting vector, the points scoring strictly better
// than q, in rank order.
func (ix *Index) explain(ctx context.Context, ws []vec.Weight, q vec.Point) ([][]Ranked, error) {
	out := make([][]Ranked, len(ws))
	for i, w := range ws {
		res, err := topk.ExplainCtx(ctx, ix.tree, w, q)
		if err != nil {
			return nil, err
		}
		out[i] = toRanked(res)
	}
	return out, nil
}

func runModifyQuery(ctx context.Context, ix *Index, a *query) (any, error) {
	res, err := core.MQP(ctx, ix.tree, ix.coreSource(a.k), a.q, a.k, a.ws, a.pm)
	if err != nil {
		return nil, err
	}
	return toQueryRefinement(res), nil
}

func runModifyPreferences(ctx context.Context, ix *Index, a *query) (any, error) {
	res, err := core.MWK(ctx, ix.tree, ix.coreSource(a.k), a.q, a.k, a.ws, a.s, rngFor(a.seed), a.pm)
	if err != nil {
		return nil, err
	}
	return toPreferenceRefinement(res), nil
}

func runModifyAll(ctx context.Context, ix *Index, a *query) (any, error) {
	res, err := core.MQWK(ctx, ix.tree, ix.coreSource(a.k), a.q, a.k, a.ws, a.s, a.s, a.seed, a.pm)
	if err != nil {
		return nil, err
	}
	return toFullRefinement(res), nil
}

func whyNotRTA(val any) RTAStats { return val.(*WhyNotAnswer).RTA }

// runWhyNot is the complete why-not pipeline: the reverse top-k result, the
// missing vectors, their explanations, and — fused in core.WhyNotRefine, so
// one candidate traversal serves both sampling solutions and MQWK reuses
// the MQP optimum — all three refinements, each bit-identical to its
// standalone kind. With nothing missing only Result and RTA are populated.
// Membership is one capped count descent per why-not vector over the full
// tree: a question names a handful of vectors, so it never asks for the
// k-band or its grid, which would cost more to build than they save it.
func runWhyNot(ctx context.Context, ix *Index, a *query) (any, error) {
	res, stats, err := rtopk.BichromaticCountCtx(ctx, ix.tree, a.ws, a.q, a.k)
	if err != nil {
		return nil, err
	}
	ans := &WhyNotAnswer{Result: res, RTA: toRTAStats(stats)}
	in := make(map[int]bool, len(res))
	for _, i := range res {
		in[i] = true
	}
	var missing []vec.Weight
	for i, w := range a.ws {
		if !in[i] {
			ans.Missing = append(ans.Missing, i)
			missing = append(missing, w)
		}
	}
	if len(missing) == 0 {
		return ans, nil
	}
	if ans.Explanations, err = ix.explain(ctx, missing, a.q); err != nil {
		return nil, err
	}
	ref, err := core.WhyNotRefine(ctx, ix.tree, ix.coreSource(a.k),
		a.q, a.k, missing, a.s, a.s, a.seed, a.pm)
	if err != nil {
		return nil, err
	}
	ans.ModifiedQuery = toQueryRefinement(ref.MQP)
	ans.ModifiedPreferences = toPreferenceRefinement(ref.MWK)
	ans.ModifiedAll = toFullRefinement(ref.MQWK)
	return ans, nil
}
