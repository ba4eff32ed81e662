package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// kernelSource builds a Source with counters attached, mirroring the hooks
// the Index wires up (band trimming omitted — the allocation guards target
// the universe paths).
func kernelSource() *Source {
	return &Source{Kernel: kernel.NewCounters(), Routes: new(RouteCounters)}
}

// TestSampleLoopAllocsPerOp extends the TestTopKAllocsPerOp-style guards to
// the sampling loops, at d = 3 (the kernel's unrolled sweeps) and d = 6
// (its generic-d tails): with a warm pooled scratch, the blocked rank
// evaluations — rankBlock over the universe image and the capped
// sampleRankBlock — must not allocate at all, classifying a sample query
// point — q itself, or a box point through the bitmap index — and drawing
// its ranked samples must not either (drawn weights live in the block
// arena, kept ones in the kept arena), nor must a warm rebuild of the
// universe, and one whole search stays within a budget that does not grow
// with the sample count (a regression here silently multiplies the cost of
// every refinement request).
func TestSampleLoopAllocsPerOp(t *testing.T) {
	for _, tc := range []struct {
		d int
		q vec.Point
	}{
		{3, vec.Point{0.05, 0.06, 0.05}},
		{6, vec.Point{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}},
	} {
		t.Run(fmt.Sprintf("d=%d", tc.d), func(t *testing.T) { sampleLoopAllocs(t, tc.d, tc.q) })
	}
}

func sampleLoopAllocs(t *testing.T, d int, q vec.Point) {
	ds := dataset.Independent(2000, d, 5)
	tr := ds.Tree()
	src := kernelSource()
	cands, _ := dominance.Candidates(tr, q)
	if len(cands) < 100 {
		t.Fatalf("universe too small for a meaningful guard: %d candidates", len(cands))
	}
	rng := rand.New(rand.NewSource(9))
	wm := make([]vec.Weight, 8)
	for i := range wm {
		wm[i] = sample.RandSimplex(rng, d)
	}
	ranks := make([]int, len(wm))

	sc := getRankScratch()
	defer putRankScratch(sc)
	sc.candidates(tr, src, q, nil, wm)
	ev := newRankEval(src, sc, cands, q)
	if ev.u == nil {
		t.Fatal("universe evaluator expected")
	}
	img, dSub := &sc.uni.all, sc.dPos
	ev.rankBlock(img, dSub, wm, ranks) // warm block buffers
	if allocs := testing.AllocsPerRun(100, func() {
		ev.rankBlock(img, dSub, wm, ranks)
	}); allocs > 1 {
		// One closure allocation feeding kernel.CountBelowWeights is
		// tolerated; per-weight or per-point allocations are not.
		t.Fatalf("rankBlock allocates %.1f objects per op, want <= 1", allocs)
	}
	kMax := 0
	for _, r := range ranks {
		kMax = max(kMax, r)
	}
	ev.forSamples(kMax)
	if allocs := testing.AllocsPerRun(100, func() {
		ev.sampleRankBlock(wm, ranks, kMax)
	}); allocs != 0 {
		t.Fatalf("sampleRankBlock allocates %.1f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sc.classify(q)
	}); allocs != 0 {
		t.Fatalf("classify allocates %.1f objects per query point, want 0", allocs)
	}

	// Whole-search budget: one warm mwkSearch allocates its evaluator, the
	// sampler with its draw and accessor closures, and the sort's and the
	// scan's closures — a fixed dozen or so objects, none per draw and none
	// per kept sample, so 64 and 512 samples must cost the same.
	pm := PenaltyModel{Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Lambda: 0.5}
	callRng := rand.New(rand.NewSource(11))
	search := func(samples int) float64 {
		run := func() {
			if _, err := mwkSearch(context.Background(), newRankEval(src, sc, cands, q), 3, wm, samples, callRng, pm, noBudget); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the arenas at this sample count
		return testing.AllocsPerRun(20, run)
	}
	const budget = 16
	for _, samples := range []int{64, 512} {
		if allocs := search(samples); allocs > budget {
			t.Fatalf("mwkSearch allocates %.1f objects per search at %d samples, want <= %d", allocs, samples, budget)
		}
	}
	if rs := src.Routes.Snapshot(); rs.SamplesDrawn == 0 || rs.SamplesKept == 0 || rs.SamplesKept == rs.SamplesDrawn {
		t.Fatalf("guard needs both kept and discarded draws to mean anything: %+v", rs)
	}

	// An MQWK box point classifies through the universe's bitmap index,
	// also without allocating.
	qMin, mid := make(vec.Point, d), make(vec.Point, d)
	for j := range q {
		qMin[j], mid[j] = q[j]/2, q[j]*3/4
	}
	sc.candidates(tr, src, q, qMin, wm)
	if !sc.classify(mid) {
		t.Fatal("a point inside the box must be trusted")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		sc.classify(mid)
	}); allocs != 0 {
		t.Fatalf("classify allocates %.1f objects per box point, want 0", allocs)
	}

	// A warm universe build — the node walk collecting the candidates and
	// prepareUniverse with its bitmap index, below-q lists and band trim —
	// allocates nothing either.
	band := imageOf(tr, naiveCounts(ds.Points), len(ds.Points)+1) // every point, counted exactly: valid at any bound
	src.Band = func(int) (BandImage, bool) { return band, true }
	sc.candidates(tr, src, q, qMin, wm)
	if allocs := testing.AllocsPerRun(20, func() {
		sc.candidates(tr, src, q, qMin, wm)
	}); allocs != 0 {
		t.Fatalf("a warm universe build allocates %.1f objects, want 0", allocs)
	}
}
