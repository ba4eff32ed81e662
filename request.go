package wqrtq

// The context-first request/response API: every public query path of Index
// and Engine is reachable through a *Ctx method taking a context.Context and
// a request struct, returning a response struct carrying the snapshot epoch
// and the wall-clock time spent. These are the primary entry points; the
// positional signatures (Index.TopK, Index.WhyNot, Engine.ReverseTopK, ...)
// are thin wrappers delegating here with context.Background().
//
// Cancellation is cooperative: the long-running layers — the branch-and-
// bound heap loop of internal/topk, the RTA loop of internal/rtopk, and the
// |S| x |Q| sampling loops of internal/core — poll ctx at bounded intervals
// (every N heap pops / samples), so a canceled or deadline-expired request
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
	// (for Engine requests this includes queueing and batching time).
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
	// RTA reports the evaluation's pruning statistics. For engine requests
	// served from the result cache or a merged same-(q, k) group, the
	// statistics are those of the computation that produced the shared
	// result.
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

// TopKCtx answers a TopKRequest with cooperative cancellation: the
// branch-and-bound search polls ctx every few dozen heap pops and returns
// ctx.Err() once the context ends.
func (ix *Index) TopKCtx(ctx context.Context, req TopKRequest) (TopKResponse, error) {
	start := time.Now()
	resp := TopKResponse{Epoch: ix.Epoch()}
	if err := ix.checkWeight(req.W); err != nil {
		return resp, err
	}
	if req.K <= 0 {
		return resp, errPositiveK
	}
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	rs, err := topk.TopKCtx(ctx, ix.tree, vec.Weight(req.W), req.K)
	if err != nil {
		return resp, err
	}
	resp.Result = toRanked(rs)
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// RankCtx answers a RankRequest with cooperative cancellation.
func (ix *Index) RankCtx(ctx context.Context, req RankRequest) (RankResponse, error) {
	start := time.Now()
	resp := RankResponse{Epoch: ix.Epoch()}
	if err := ix.checkWeight(req.W); err != nil {
		return resp, err
	}
	if err := ix.checkPoint(req.Q); err != nil {
		return resp, err
	}
	w := vec.Weight(req.W)
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	r, err := ix.rankResult(ctx, w, vec.Score(w, vec.Point(req.Q)))
	if err != nil {
		return resp, err
	}
	resp.Rank = r
	resp.Elapsed = time.Since(start)
	return resp, nil
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

// ReverseTopKCtx answers a ReverseTopKRequest with cooperative cancellation:
// the RTA loop polls ctx between vector evaluations and inside each
// evaluation's heap loop.
func (ix *Index) ReverseTopKCtx(ctx context.Context, req ReverseTopKRequest) (ReverseTopKResponse, error) {
	start := time.Now()
	resp := ReverseTopKResponse{Epoch: ix.Epoch()}
	ws, err := ix.checkWeights(req.W)
	if err != nil {
		return resp, err
	}
	if err := ix.checkPoint(req.Q); err != nil {
		return resp, err
	}
	if req.K <= 0 {
		return resp, errPositiveK
	}
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	res, stats, err := ix.bichromatic(ctx, ws, req.Q, req.K)
	if err != nil {
		return resp, err
	}
	resp.Result = res
	resp.RTA = toRTAStats(stats)
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// bichromatic answers a validated bichromatic reverse top-k query through
// the fastest tier the input admits; every tier decides membership
// identically. With the cell index available, each vector is counted
// against its grid cell's candidate superset (see internal/cellindex's
// count-preservation argument), with a whole-query fallback to the tiers
// below when the index declines. With the skyband sub-index enabled, the
// evaluation runs against the k-skyband: the k smallest scores under any
// vector are achieved inside the band. For d <= 4 and a band of at most
// rtopk.CoordsCutoff points the whole weight set is counted against the
// flattened band in blocked sweeps (see rtopk.BichromaticCoordsCtx's
// count-preservation argument); otherwise the RTA loop runs over the band
// R-tree, or over the full tree when the band is disabled.
func (ix *Index) bichromatic(ctx context.Context, W []vec.Weight, q vec.Point, k int) ([]int, rtopk.Stats, error) {
	if g := ix.cellGrid(k); g != nil {
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
	if b := ix.band(k); b != nil {
		if !ix.kernelOff && ix.Dim() <= 4 && b.Size() <= rtopk.CoordsCutoff {
			res, stats, err := rtopk.BichromaticCoordsCtx(ctx, b.Coords(), W, q, k, ix.kct)
			stats.CandidateSetSize = b.Size()
			return res, stats, err
		}
		return rtopk.BichromaticCtx(ctx, b.Tree(), W, q, k)
	}
	return rtopk.BichromaticCtx(ctx, ix.tree, W, q, k)
}

// ExplainCtx answers an ExplainRequest with cooperative cancellation.
func (ix *Index) ExplainCtx(ctx context.Context, req ExplainRequest) (ExplainResponse, error) {
	start := time.Now()
	resp := ExplainResponse{Epoch: ix.Epoch()}
	ws, err := ix.checkWeights(req.Wm)
	if err != nil {
		return resp, err
	}
	if err := ix.checkPoint(req.Q); err != nil {
		return resp, err
	}
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	out := make([][]Ranked, len(ws))
	for i, w := range ws {
		res, err := topk.ExplainCtx(ctx, ix.tree, w, req.Q)
		if err != nil {
			return resp, err
		}
		out[i] = toRanked(res)
	}
	resp.Explanations = out
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// ModifyQueryCtx answers a ModifyQueryRequest (Algorithm 1, MQP) with
// cooperative cancellation of the per-vector top k-th searches.
func (ix *Index) ModifyQueryCtx(ctx context.Context, req ModifyQueryRequest) (ModifyQueryResponse, error) {
	start := time.Now()
	resp := ModifyQueryResponse{Epoch: ix.Epoch()}
	ws, err := ix.checkWeights(req.Wm)
	if err != nil {
		return resp, err
	}
	pm, _, _, _, err := req.Opts.resolve()
	if err != nil {
		return resp, err
	}
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	res, err := core.MQPSrcCtx(ctx, ix.tree, ix.refineSource(req.Q, req.K), req.Q, req.K, ws, pm)
	if err != nil {
		return resp, err
	}
	resp.Refinement = QueryRefinement{Q: res.RefinedQ, Penalty: res.Penalty}
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// ModifyPreferencesCtx answers a ModifyPreferencesRequest (Algorithm 2, MWK)
// with cooperative cancellation of the |S|-sample loop.
func (ix *Index) ModifyPreferencesCtx(ctx context.Context, req ModifyPreferencesRequest) (ModifyPreferencesResponse, error) {
	start := time.Now()
	resp := ModifyPreferencesResponse{Epoch: ix.Epoch()}
	ws, err := ix.checkWeights(req.Wm)
	if err != nil {
		return resp, err
	}
	pm, s, _, seed, err := req.Opts.resolve()
	if err != nil {
		return resp, err
	}
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	run := core.MWKSrcCtx
	if req.Opts.PerVector {
		run = core.MWKPerVectorSrcCtx
	}
	res, err := run(ctx, ix.tree, ix.refineSource(req.Q, req.K), req.Q, req.K, ws, s, rngFor(seed), pm)
	if err != nil {
		return resp, err
	}
	resp.Refinement = PreferenceRefinement{
		Wm:      weightsToFloats(res.RefinedWm),
		K:       res.RefinedK,
		Penalty: res.Penalty,
		KMax:    res.KMax,
	}
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// ModifyAllCtx answers a ModifyAllRequest (Algorithm 3, MQWK) with
// cooperative cancellation: ctx is polled before every sample query point
// and inside every sampling loop, across all workers when parallel.
func (ix *Index) ModifyAllCtx(ctx context.Context, req ModifyAllRequest) (ModifyAllResponse, error) {
	start := time.Now()
	resp := ModifyAllResponse{Epoch: ix.Epoch()}
	ws, err := ix.checkWeights(req.Wm)
	if err != nil {
		return resp, err
	}
	pm, s, qs, seed, err := req.Opts.resolve()
	if err != nil {
		return resp, err
	}
	if err := ctx.Err(); err != nil {
		return resp, err
	}
	var res core.MQWKResult
	src := ix.refineSource(req.Q, req.K)
	if req.Opts.Workers != 0 {
		workers := req.Opts.Workers
		if workers < 0 {
			workers = 0 // MQWKParallel resolves 0 to GOMAXPROCS
		}
		res, err = core.MQWKParallelSrcCtx(ctx, ix.tree, src, req.Q, req.K, ws, s, qs, seed, workers, pm)
	} else {
		res, err = core.MQWKSrcCtx(ctx, ix.tree, src, req.Q, req.K, ws, s, qs, rngFor(seed), pm)
	}
	if err != nil {
		return resp, err
	}
	resp.Refinement = FullRefinement{
		Q:       res.RefinedQ,
		Wm:      weightsToFloats(res.RefinedWm),
		K:       res.RefinedK,
		Penalty: res.Penalty,
	}
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// WhyNotCtx answers a WhyNotRequest — the complete pipeline of Index.WhyNot
// — with cooperative cancellation threaded through every stage: the reverse
// top-k evaluation, the explanations, and all three refinement algorithms.
// A canceled request returns ctx.Err() within one check interval of the
// stage it was in.
func (ix *Index) WhyNotCtx(ctx context.Context, req WhyNotRequest) (WhyNotResponse, error) {
	start := time.Now()
	resp := WhyNotResponse{Epoch: ix.Epoch()}
	rt, err := ix.ReverseTopKCtx(ctx, ReverseTopKRequest{Q: req.Q, K: req.K, W: req.W})
	if err != nil {
		return resp, err
	}
	ans := &WhyNotAnswer{Result: rt.Result, RTA: rt.RTA}
	in := make(map[int]bool, len(rt.Result))
	for _, i := range rt.Result {
		in[i] = true
	}
	var missing [][]float64
	for i := range req.W {
		if !in[i] {
			ans.Missing = append(ans.Missing, i)
			missing = append(missing, req.W[i])
		}
	}
	if len(missing) == 0 {
		resp.Answer = ans
		resp.Elapsed = time.Since(start)
		return resp, nil
	}
	ex, err := ix.ExplainCtx(ctx, ExplainRequest{Q: req.Q, Wm: missing})
	if err != nil {
		return resp, err
	}
	ans.Explanations = ex.Explanations
	// The three refinements run fused (core.WhyNotRefineSrcCtx): one
	// candidate traversal serves both sampling solutions and MQWK reuses
	// the MQP optimum, with every answer bit-identical to the standalone
	// ModifyQueryCtx / ModifyPreferencesCtx / ModifyAllCtx calls.
	pm, s, qs, seed, err := req.Opts.resolve()
	if err != nil {
		return resp, err
	}
	ref, err := core.WhyNotRefineSrcCtx(ctx, ix.tree, ix.refineSource(req.Q, req.K),
		req.Q, req.K, toWeights(missing), s, qs, seed, req.Opts.Workers, req.Opts.PerVector, pm)
	if err != nil {
		return resp, err
	}
	ans.ModifiedQuery = QueryRefinement{Q: ref.MQP.RefinedQ, Penalty: ref.MQP.Penalty}
	ans.ModifiedPreferences = PreferenceRefinement{
		Wm:      weightsToFloats(ref.MWK.RefinedWm),
		K:       ref.MWK.RefinedK,
		Penalty: ref.MWK.Penalty,
		KMax:    ref.MWK.KMax,
	}
	ans.ModifiedAll = FullRefinement{
		Q:       ref.MQWK.RefinedQ,
		Wm:      weightsToFloats(ref.MQWK.RefinedWm),
		K:       ref.MQWK.RefinedK,
		Penalty: ref.MQWK.Penalty,
	}
	resp.Answer = ans
	resp.Elapsed = time.Since(start)
	return resp, nil
}
