package core

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"wqrtq/internal/ctxcheck"

	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// Source carries the skyband-backed acceleration hooks that the refinement
// algorithms (MQP, MWK, MQWK) route their index work through. A nil
// *Source is the legacy oracle: the reference execution the differential
// suites compare against, preserved exactly. A non-nil Source is the
// product path and must be bit-compatible with it:
//
//   - KthPoint(w, k) must return a point achieving exactly the dataset's
//     k-th smallest score under w. A k-skyband tree qualifies: the k
//     smallest scores of the dataset are achieved within the band, so only
//     the identity of a score-tied k-th point may differ, and MQP consumes
//     the score alone.
//
// The sampling loops additionally switch to sample.LazyWeightSampler,
// whose draw stream is bit-identical to the eager sampler; refined
// vectors, k' values and penalties therefore match the oracle exactly,
// which the differential suites assert end to end.
//
// With a Source, ranks are counted over the call's candidate set — the
// points not dominated by and not equal to the reference query point — by
// capped sweeps of a call-fixed column-major image of it (see universe), at
// every dimensionality and every candidate-set size, the empty one
// included. The call collects that image by one node walk that reads each
// leaf's block and compacts the survivors straight into its columns (see
// collect): the same nodes, points and order as dominance.Candidates.
// Nothing touches the tree per sample.
type Source struct {
	KthPoint func(ctx context.Context, w vec.Weight, k int) (topk.Result, bool, error)
	// Band returns the image of a skyband of the whole dataset that
	// covers the bound-skyband — every member with its exact dominance
	// count, so the bound-skyband is exactly the members counted below
	// bound — and true, or false when none is available. The sampling
	// loops use it to shrink the per-sample sweep to the k'max-skyband: a
	// sample's rank is needed exactly only while it is <= k'max, every
	// strict beater of a point ranked <= k'max lies in the k'max-skyband,
	// and a trimmed count that reaches k'max proves the true rank exceeds
	// it — so trimming never changes a kept sample's rank or a discard
	// decision.
	Band func(bound int) (BandImage, bool)
	// Kernel, when non-nil, records the points the sampling loops' sweeps
	// of the candidate image examined (internal/kernel's counters). It
	// selects nothing: the sweeps run the same with or without it.
	Kernel *kernel.Counters
	// Routes, when non-nil, records how the samples were ranked.
	Routes *RouteCounters
}

// BandImage is a skyband as the trim reads it: the members' coordinates
// column-major, and each position's record id and exact dominance count.
// The members may come in any order; the trim keeps theirs within each
// count, so an image in the order the universe's walk meets the points —
// the tree's depth-first leaf order, dominance.KSkyband's — gives a trim
// in universe order.
type BandImage struct {
	Coords *kernel.Coords
	IDs    []int32
	Counts []int32
}

// RouteCounters accumulates, across the calls of one clone family, how
// much of the candidate universe the band trim removed and which of the two
// images — trimmed or whole — each sample loop swept. All methods are
// nil-safe.
type RouteCounters struct {
	universes      atomic.Int64
	universePoints atomic.Int64
	trimmedPoints  atomic.Int64
	evals          [numEvalRoutes]atomic.Int64
	drawn          atomic.Int64
	kept           atomic.Int64
	skipped        atomic.Int64
	capped         atomic.Int64
}

// evalRoute indexes RouteCounters.evals: the image one sample loop's
// evaluator sweeps.
type evalRoute int

const (
	evalTrimmed evalRoute = iota
	evalUntrimmed
	numEvalRoutes
)

// RouteSnapshot is a point-in-time copy of RouteCounters.
type RouteSnapshot struct {
	// Universes counts call-fixed universes prepared (one per refinement
	// call with a Source); UniversePoints sums their sizes and
	// TrimmedPoints the sizes of their band trims (0 for a call whose trim
	// was refused or too weak), so TrimmedPoints/UniversePoints is the
	// fraction of each sweep the trim leaves.
	Universes      int64 `json:"universes"`
	UniversePoints int64 `json:"universe_points"`
	TrimmedPoints  int64 `json:"trimmed_points"`
	// EvalsTrimmed and EvalsUntrimmed count sample-loop evaluators (one per
	// sample query point) by the image they swept: the band-trimmed
	// universe or the whole one.
	EvalsTrimmed   int64 `json:"evals_trimmed"`
	EvalsUntrimmed int64 `json:"evals_untrimmed"`
	// SamplesDrawn and SamplesKept count drawn weighting vectors and those
	// ranking within k'max; the difference was discarded by a capped count.
	SamplesDrawn int64 `json:"samples_drawn"`
	SamplesKept  int64 `json:"samples_kept"`
	// PointsSkipped counts MQWK box points the penalty budget ruled out
	// before their search (their query-point change alone exceeds the best
	// penalty found), and PointsCapped those whose sample ranking it capped
	// below k'max.
	PointsSkipped int64 `json:"points_skipped"`
	PointsCapped  int64 `json:"points_capped"`
}

// Snapshot copies the counters.
func (c *RouteCounters) Snapshot() RouteSnapshot {
	if c == nil {
		return RouteSnapshot{}
	}
	return RouteSnapshot{
		Universes:      c.universes.Load(),
		UniversePoints: c.universePoints.Load(),
		TrimmedPoints:  c.trimmedPoints.Load(),
		EvalsTrimmed:   c.evals[evalTrimmed].Load(),
		EvalsUntrimmed: c.evals[evalUntrimmed].Load(),
		SamplesDrawn:   c.drawn.Load(),
		SamplesKept:    c.kept.Load(),
		PointsSkipped:  c.skipped.Load(),
		PointsCapped:   c.capped.Load(),
	}
}

func (c *RouteCounters) countUniverse(points, trimmed int) {
	if c != nil {
		c.universes.Add(1)
		c.universePoints.Add(int64(points))
		c.trimmedPoints.Add(int64(trimmed))
	}
}

func (c *RouteCounters) countEval(r evalRoute) {
	if c != nil {
		c.evals[r].Add(1)
	}
}

func (c *RouteCounters) countSamples(drawn, kept int) {
	if c != nil {
		c.drawn.Add(int64(drawn))
		c.kept.Add(int64(kept))
	}
}

func (c *RouteCounters) countSkipped() {
	if c != nil {
		c.skipped.Add(1)
	}
}

func (c *RouteCounters) countCapped() {
	if c != nil {
		c.capped.Add(1)
	}
}

// rankScratch holds the buffers one sampling call reuses across its sample
// query points: the call-fixed universe, one query point's classification
// against it, the sampler's draw scratch, and the per-search rank, sample
// and candidate arrays. Scratches are pooled (getRankScratch/
// putRankScratch), so successive calls share warm buffers instead of
// allocating per call.
type rankScratch struct {
	ks   kernel.Scratch // packed block buffers of rankQ's ScoreBlock passes
	draw sample.DrawScratch
	// Per-block buffers of the sample loop: warena backs the drawn weights
	// of one block (wblock's headers point into it), so a discarded draw
	// leaves nothing behind; rblock receives their ranks. fqs/counts serve
	// rankBlock.
	warena []float64
	wblock []vec.Weight
	rblock []int
	fqs    []float64
	counts []int
	// Per-search buffers: the why-not vectors' ranks, the kept samples
	// (their weights copied into the kept arena, sized before the draw so
	// it never moves), the candidate vector set of the Lemma 6 scan with
	// its distances, and the best candidate seen.
	ranks   []int
	samples []sampleRank
	kept    []float64
	cw      []vec.Weight
	dist    []float64
	bestCW  []vec.Weight
	// uni is the call's universe, in force once prepared (prepareUniverse);
	// on the legacy route it is never prepared.
	uni      universe
	prepared bool
	// One query point's classification against uni (see classify): the
	// positions of the dominating points (with, for a trusted point, their
	// indices into uni.le in dLe), and the bitmap of the points that
	// are *not* incomparable over the domain notDom (every position when
	// notAll), with its per-word prefix counts notPre; incPre[w] counts the
	// incomparable positions before word w's first domain index. The
	// incomparable set is the complement. geMaps and gtMaps hold the query
	// point's bitmaps of the universe's index.
	dPos   []int32
	dLe    []int32
	notX   []uint64
	notPre []int32
	incPre []int32
	notDom []int32
	notAll bool
	geMaps [][]uint64
	gtMaps [][]uint64
	// dSub is dPos restricted to the prefix of the band trim a sample loop
	// sweeps, in trim positions; view is that prefix as a Coords (or, while
	// a universe is prepared, a window of its image, scored into scores).
	dSub   []int32
	view   kernel.Coords
	scores []float64
	pbuf   vec.Point // incAt's scratch point
}

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// getRankScratch takes a scratch from the shared pool; pair with
// putRankScratch.
func getRankScratch() *rankScratch { return rankScratchPool.Get().(*rankScratch) }

// putRankScratch clears the call-scoped state — including every reference
// into snapshot point data and into the caller's weight slices, so an idle
// pooled scratch never pins a dead epoch's points or bands — and returns
// the scratch to the pool. The float64, int32 and uint64 backing arrays
// (SoA images, position lists, bitmaps, arenas, score lists) hold no
// pointers and are retained for reuse.
func putRankScratch(sc *rankScratch) {
	if sc == nil {
		return
	}
	sc.prepared = false
	sc.uni.release()
	clear(sc.cw[:cap(sc.cw)])
	clear(sc.bestCW[:cap(sc.bestCW)])
	rankScratchPool.Put(sc)
}

// ranksBuf returns the scratch's rank buffer sized to n.
func (sc *rankScratch) ranksBuf(n int) []int {
	if cap(sc.ranks) < n {
		sc.ranks = make([]int, n)
	}
	return sc.ranks[:n]
}

// rankEval evaluates one query point's rank under weighting vectors, by
// one of two routes that return identical values:
//
//   - legacy (u == nil; nil Source): dominance.Sets.Rank over the
//     materialized sets, the reference execution.
//   - universe (any Source): sweeps of a column-major image that is a
//     superset of I(qp) — the call-fixed candidate universe or a band trim
//     of it — or, for a trusted point's Wm ranks, binary searches of the
//     universe's below-q score lists. The dominating points the image
//     contains (dSub, as positions into it) are counted too and subtracted
//     per weight, which is exact (see universe).
//
// The rank definition is the same on both: 1 + |D| + the strict I-beaters,
// every score the multiply/add chain of vec.Score.
type rankEval struct {
	qp   vec.Point
	base int // 1 + |D|
	sc   *rankScratch
	// universe route
	u       *universe
	trusted bool
	img     *kernel.Coords // the image the sample loop sweeps (forSamples)
	dSub    []int32        // dominating points inside img, to subtract
	ct      *kernel.Counters
	rc      *RouteCounters
	// legacy route
	sets dominance.Sets
}

// newRankEval classifies cands against qp — against the scratch's universe
// when one is in force (every call with a Source prepares one), by
// dominance.Classify otherwise — and returns the evaluator every ranking of
// that query point goes through.
func newRankEval(src *Source, sc *rankScratch, cands []dominance.Ref, qp vec.Point) *rankEval {
	if sc.prepared {
		trusted := sc.classify(qp)
		return &rankEval{qp: qp, base: 1 + len(sc.dPos), sc: sc, rc: src.Routes,
			u: &sc.uni, trusted: trusted, ct: src.Kernel}
	}
	sets := dominance.Classify(cands, qp)
	return &rankEval{qp: qp, base: 1 + len(sets.D), sc: sc, sets: sets}
}

// numInc returns |I(qp)| and incAt the i-th incomparable point in
// classification order — the sampler's sample space.
func (e *rankEval) numInc() int {
	if e.u != nil {
		return e.sc.numInc()
	}
	return len(e.sets.I)
}

func (e *rankEval) incAt(i int) vec.Point {
	if e.u != nil {
		return e.sc.incAt(i)
	}
	return e.sets.I[i].Point
}

// rankWm writes qp's exact rank under every why-not vector into out.
func (e *rankEval) rankWm(wm []vec.Weight, out []int) {
	u := e.u
	if u == nil {
		for i, w := range wm {
			out[i] = e.sets.Rank(w, e.qp)
		}
		return
	}
	// The universe was prepared for these vectors: q's own ranks are the
	// ones k0 was taken from, and a trusted point's beaters are all in the
	// below-q lists.
	callWm := e.trusted && len(wm) > 0 && len(u.wmFor) == len(wm) && &u.wmFor[0] == &wm[0]
	if !callWm {
		e.rankBlock(&u.all, e.sc.dPos, wm, out)
		return
	}
	if vec.Equal(e.qp, u.hi) {
		copy(out, u.qRanks)
		return
	}
	for i, w := range wm {
		fq := vec.Score(w, e.qp)
		out[i] = e.base + sort.SearchFloat64s(u.below[i], fq) - countBeatsAt(&u.all, e.sc.dPos, w, fq)
	}
}

// forSamples readies the evaluator for the sample loop once k'max is
// known. On the universe route a trusted point with a trim sweeps the
// k'max-skyband's share of the universe — a prefix of the trim — instead
// of the whole: kept samples (rank <= k'max) get their exact rank, since
// every strict beater of a point ranked <= k'max has fewer than k'max
// dominators, and discarded ones (true rank > k'max) are still reported
// above k'max, since any k'max beaters include k'max inside the
// k'max-skyband — so the loop behaves identically to the full sweep.
func (e *rankEval) forSamples(kMax int) {
	u := e.u
	if u == nil {
		return
	}
	if e.trusted && u.trimmed && kMax <= u.k0 {
		n := int(u.cum[kMax])
		e.sc.view.PrefixOf(&u.trim, n)
		e.sc.dSub = u.inTrim(e.sc.dLe, n, e.sc.dSub[:0])
		e.img, e.dSub = &e.sc.view, e.sc.dSub
		e.rc.countEval(evalTrimmed)
		return
	}
	e.img, e.dSub = &u.all, e.sc.dPos
	e.rc.countEval(evalUntrimmed)
}

// rankBlock ranks every weight of ws by one uncapped count of img each — a
// superset image of I(qp) whose dominating points sit at positions dSub —
// writing the ranks into out.
func (e *rankEval) rankBlock(img *kernel.Coords, dSub []int32, ws []vec.Weight, out []int) {
	sc := e.sc
	if cap(sc.fqs) < len(ws) {
		sc.fqs = make([]float64, len(ws))
	}
	if cap(sc.counts) < len(ws) {
		sc.counts = make([]int, len(ws))
	}
	fqs := sc.fqs[:len(ws)]
	counts := sc.counts[:len(ws)]
	for i, w := range ws {
		fqs[i] = vec.Score(w, e.qp)
	}
	kernel.CountBelowWeights(img, len(ws), func(i int) []float64 { return ws[i] }, fqs, counts, nil, e.ct)
	for i, w := range ws {
		out[i] = e.base + counts[i] - countBeatsAt(img, dSub, w, fqs[i])
	}
}

// sampleRankBlock ranks a block of sampled weights, exploiting that the
// sample loop needs exact ranks only up to kMax: each weight's count runs
// capped (kernel.CountBelowCapped) at cap = kMax - base + |dSub|, which
// guarantees an uncapped count yields the exact rank and a capped one
// proves the true rank exceeds kMax — the reported value is then merely
// some number > kMax, which the loop discards exactly as it would the
// true one. Kept samples and their ranks are therefore identical to the
// uncapped evaluation (and to the legacy route's), while discarded samples
// abandon their sweeps early.
func (e *rankEval) sampleRankBlock(ws []vec.Weight, out []int, kMax int) {
	scanned := 0
	capAt := kMax - e.base + len(e.dSub)
	for i, w := range ws {
		fq := vec.Score(w, e.qp)
		cnt, n := kernel.CountBelowCapped(e.img, w, fq, capAt, 0, e.img.Len())
		scanned += n
		if cnt > capAt {
			// count(img) > kMax - base + |dSub| and count(dSub-part) <=
			// |dSub| force the true rank past kMax; report the bound.
			out[i] = kMax + 1
		} else {
			out[i] = e.base + cnt - countBeatsAt(e.img, e.dSub, w, fq)
		}
	}
	e.ct.Add(len(ws), scanned)
}

// countBeatsAt counts the points of c at positions pos scoring strictly
// below fq, each score the multiply/add chain of vec.Score read off the
// columns.
func countBeatsAt(c *kernel.Coords, pos []int32, w vec.Weight, fq float64) int {
	cnt := 0
	for _, p := range pos {
		s := w[0] * c.Col(0)[p]
		for j := 1; j < len(w); j++ {
			s += w[j] * c.Col(j)[p]
		}
		if s < fq {
			cnt++
		}
	}
	return cnt
}

// kthPoint routes MQP's top k-th search through the source's band tree
// when available.
func kthPoint(ctx context.Context, src *Source, t *rtree.Tree, w vec.Weight, k int) (topk.Result, bool, error) {
	if src != nil && src.KthPoint != nil {
		return src.KthPoint(ctx, w, k)
	}
	return topk.KthPointCtx(ctx, t, w, k)
}

// newDraw builds the sample space over the evaluator's incomparable set
// and returns the per-sample draw, which writes one weighting vector into
// dst: the lazy sampler on the universe route (no per-plane
// materialization, nothing allocated per draw), the legacy eager one
// otherwise. Both consume the rng identically and return
// sample.ErrNoSampleSpace for an empty I.
func newDraw(e *rankEval, rng *rand.Rand) (func(dst vec.Weight), error) {
	if e.u != nil {
		ls, err := sample.NewLazyWeightSampler(e.qp, e.numInc(), e.incAt)
		if err != nil {
			return nil, err
		}
		sc := e.sc
		return func(dst vec.Weight) { ls.SampleInto(rng, &sc.draw, dst) }, nil
	}
	inc := make([]vec.Point, len(e.sets.I))
	for i, c := range e.sets.I {
		inc[i] = c.Point
	}
	ws, err := sample.NewWeightSampler(e.qp, inc)
	if err != nil {
		return nil, err
	}
	return func(dst vec.Weight) { copy(dst, ws.Sample(rng)) }, nil
}

// sampleRank is one drawn weighting vector with its (exact, <= k'max)
// rank.
type sampleRank struct {
	w    vec.Weight
	rank int
}

// drawRankedSamples draws sampleSize weighting vectors and keeps those
// ranking within kMax (Algorithm 2 lines 3-6 with line 13's break applied
// at construction). The draws fill a block first — consuming the rng
// stream in the same order a one-at-a-time loop would — and the block is
// then ranked: by one capped kernel pass on the universe route, by the
// uncapped reference Sets.Rank on the legacy one, so the kept samples and
// their ranks are identical on both. Drawn weights live in the scratch's
// block arena; only kept ones are copied out, into the kept arena, so the
// returned samples (and everything derived from them) are valid until the
// scratch's next draw.
func drawRankedSamples(ctx context.Context, tick *ctxcheck.Ticker, e *rankEval, draw func(dst vec.Weight), sampleSize, kMax int) ([]sampleRank, error) {
	sc, d := e.sc, len(e.qp)
	if cap(sc.wblock) < kernel.BlockSize || cap(sc.warena) < kernel.BlockSize*d {
		sc.wblock = make([]vec.Weight, kernel.BlockSize)
		sc.rblock = make([]int, kernel.BlockSize)
		sc.warena = make([]float64, kernel.BlockSize*d)
	}
	if cap(sc.kept) < sampleSize*d {
		sc.kept = make([]float64, sampleSize*d)
	}
	kept := sc.kept[:0]
	samples := sc.samples[:0]
	for done := 0; done < sampleSize; {
		nb := min(sampleSize-done, kernel.BlockSize)
		wb := sc.wblock[:nb]
		for j := range wb {
			if err := tick.Tick(); err != nil {
				return nil, err
			}
			wb[j] = sc.warena[j*d : (j+1)*d : (j+1)*d]
			draw(wb[j])
		}
		rb := sc.rblock[:nb]
		if e.u != nil {
			e.sampleRankBlock(wb, rb, kMax)
		} else {
			for j, w := range wb {
				if err := tick.Tick(); err != nil {
					return nil, err
				}
				rb[j] = e.sets.Rank(w, e.qp)
			}
		}
		for j, r := range rb {
			if r <= kMax {
				at := len(kept)
				kept = append(kept, wb[j]...)
				samples = append(samples, sampleRank{w: kept[at:len(kept):len(kept)], rank: r})
			}
		}
		done += nb
	}
	sc.samples = samples
	e.rc.countSamples(sampleSize, len(samples))
	return samples, nil
}

// rngPool recycles NewRand streams across sampling calls, sparing each
// box point its allocations: Seed fully resets the stream, so a pooled rng
// re-seeded with the caller's seed draws exactly what NewRand(seed) would.
var rngPool = sync.Pool{New: func() any { return NewRand(1) }}

// getRng takes a pooled rng seeded to the given seed; pair with putRng.
func getRng(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

func putRng(r *rand.Rand) { rngPool.Put(r) }
