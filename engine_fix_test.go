package wqrtq

// Regression tests for three serving-engine fixes: the dead-epoch cache
// sweep on mutation publish, deduplication of merged reverse top-k weight
// sets, and typed validation errors at the request boundary.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/rtopk"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// TestEngineCacheSweepsDeadEpochs asserts that entries cached under a
// superseded snapshot epoch are evicted when a mutation publishes a new
// one, instead of accumulating until LRU capacity pressure reaches them.
func TestEngineCacheSweepsDeadEpochs(t *testing.T) {
	e, _ := testEngine(t, 300, 3, EngineConfig{CacheSize: 1024})
	rng := rand.New(rand.NewSource(5))
	const (
		mutations = 25
		queries   = 8
	)
	for m := 0; m < mutations; m++ {
		// Populate the cache under the current epoch with distinct queries;
		// re-issuing each one exercises the same-epoch hit path.
		for i := 0; i < queries; i++ {
			w := []float64(sample.RandSimplex(rng, 3))
			for rep := 0; rep < 2; rep++ {
				if _, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: 5}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := e.Stats().CacheLen; got > queries {
			t.Fatalf("mutation %d: cache holds %d entries before publish, want <= %d", m, got, queries)
		}
		if _, _, err := e.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		// The publish sweep must have removed every dead-epoch entry: the new
		// epoch has seen no queries yet.
		s := e.Stats()
		if s.CacheLen != 0 {
			t.Fatalf("mutation %d: %d dead-epoch entries survived the publish sweep", m, s.CacheLen)
		}
	}
	s := e.Stats()
	if want := int64(mutations * queries); s.CacheEvictions != want {
		t.Fatalf("CacheEvictions = %d, want %d (every cached entry swept exactly once)", s.CacheEvictions, want)
	}
	if s.CacheHits == 0 {
		t.Fatalf("expected some same-epoch cache hits, got stats %+v", s)
	}
}

// sharedWeightGroup builds two same-(q, k) requests whose weight sets share
// 90% of their vectors (18 of 20 each, 22 distinct in total).
func sharedWeightGroup(rng *rand.Rand, d int) (*engineReq, *engineReq) {
	shared := make([][]float64, 18)
	for i := range shared {
		shared[i] = sample.RandSimplex(rng, d)
	}
	mk := func() *engineReq {
		W := append([][]float64{}, shared...)
		W = append(W, sample.RandSimplex(rng, d), sample.RandSimplex(rng, d))
		r := &engineReq{query: query{kind: kindRTopK, set: W, q: []float64{0.05, 0.05, 0.05}, k: 5}}
		for _, w := range W {
			r.ws = append(r.ws, w) // what Index.validate derives
		}
		return r
	}
	return mk(), mk()
}

// TestMergeRTopKWeightsDedup asserts that a merged same-(q, k) group
// evaluates each distinct weight vector exactly once: the merged slice is
// deduplicated, and the RTA run over it evaluates-or-prunes exactly the
// deduplicated count.
func TestMergeRTopKWeightsDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ra, rb := sharedWeightGroup(rng, 3)
	merged, slots := mergeRTopKWeights([]*engineReq{ra, rb})
	if want := 22; len(merged) != want {
		t.Fatalf("merged %d weights, want %d (18 shared + 2 + 2)", len(merged), want)
	}
	for gi, r := range []*engineReq{ra, rb} {
		for j, mi := range slots[gi] {
			if !vec.Equal(vec.Point(merged[mi]), vec.Point(r.set[j])) {
				t.Fatalf("slot (%d, %d) points at the wrong merged vector", gi, j)
			}
		}
	}

	e, _ := testEngine(t, 400, 3, EngineConfig{})
	snap := e.Snapshot()
	_, stats, err := rtopk.BichromaticCtx(context.Background(), snap.tree, merged, vec.Point(ra.q), ra.k)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Evaluated + stats.Pruned; got != len(merged) {
		t.Fatalf("Evaluated + Pruned = %d, want the deduplicated count %d", got, len(merged))
	}
}

// TestExecRTopKSharedWeights runs the batch executor's merged-group path
// directly on two requests sharing 90% of W and checks each fan-out result
// against an independent per-request evaluation.
func TestExecRTopKSharedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e, _ := testEngine(t, 400, 3, EngineConfig{})
	snap := e.Snapshot()
	ra, rb := sharedWeightGroup(rng, 3)
	got := make(map[*engineReq][]int)
	e.execRTopK(context.Background(), snap, []*engineReq{ra, rb}, func(r *engineReq, val any, err error) {
		if err != nil {
			t.Fatalf("execRTopK: %v", err)
		}
		rv, _ := val.(rtopkVal)
		got[r] = rv.res
	})
	for i, r := range []*engineReq{ra, rb} {
		want, err := snap.ReverseTopK(r.set, r.q, r.k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("request %d: merged result %v, independent result %v", i, got[r], want)
		}
	}
}

// TestValidationTypedErrors asserts that every request-boundary rejection —
// non-finite and negative weights and points, dimension mismatches, bad k,
// empty weight sets, out-of-range ids, bad options — carries
// ErrInvalidArgument, on both the Index and the Engine paths.
func TestValidationTypedErrors(t *testing.T) {
	ctx := context.Background()
	e, ix := testEngine(t, 50, 3, EngineConfig{})
	q := []float64{0.5, 0.5, 0.5}
	okW := []float64{0.2, 0.3, 0.5}
	badWeights := map[string][]float64{
		"NaN":       {math.NaN(), 0.5, 0.5},
		"+Inf":      {math.Inf(1), 0.5, 0.5},
		"-Inf":      {math.Inf(-1), 0.5, 0.5},
		"negative":  {-0.5, 0.75, 0.75},
		"bad sum":   {0.9, 0.9, 0.9},
		"short dim": {0.5, 0.5},
	}
	for name, w := range badWeights {
		if _, err := ix.TopKCtx(ctx, TopKRequest{W: w, K: 3}); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("Index.TopKCtx(%s weight): err = %v, want ErrInvalidArgument", name, err)
		}
		if _, err := e.TopKCtx(ctx, TopKRequest{W: w, K: 3}); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("Engine.TopKCtx(%s weight): err = %v, want ErrInvalidArgument", name, err)
		}
		if _, err := e.ReverseTopKCtx(ctx, ReverseTopKRequest{Q: q, K: 3, W: [][]float64{w}}); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("Engine.ReverseTopKCtx(%s weight): err = %v, want ErrInvalidArgument", name, err)
		}
	}
	badPoints := map[string][]float64{
		"NaN":      {math.NaN(), 0.5, 0.5},
		"Inf":      {math.Inf(1), 0.5, 0.5},
		"negative": {-1, 0.5, 0.5},
		"long dim": {0.5, 0.5, 0.5, 0.5},
	}
	for name, p := range badPoints {
		if _, err := ix.RankCtx(ctx, RankRequest{W: okW, Q: p}); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("Index.RankCtx(%s point): err = %v, want ErrInvalidArgument", name, err)
		}
		if _, _, err := e.Insert(p); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("Engine.Insert(%s point): err = %v, want ErrInvalidArgument", name, err)
		}
	}
	if _, err := ix.TopKCtx(ctx, TopKRequest{W: okW, K: 0}); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("k = 0: want ErrInvalidArgument")
	}
	if _, err := e.ReverseTopKCtx(ctx, ReverseTopKRequest{Q: q, K: 3, W: nil}); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("empty W: want ErrInvalidArgument")
	}
	if _, _, err := e.Delete(-1); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("Delete(-1): want ErrInvalidArgument")
	}
	if _, err := ix.ModifyAllCtx(ctx, ModifyAllRequest{Q: q, K: 3, Wm: [][]float64{okW}, Opts: Options{SampleSize: -1}}); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("negative sample size: want ErrInvalidArgument")
	}
	if _, err := NewIndex(nil); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("NewIndex(nil): want ErrInvalidArgument")
	}
	// Context errors must not read as validation failures.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.TopKCtx(canceled, TopKRequest{W: okW, K: 3}); errors.Is(err, ErrInvalidArgument) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v, want context.Canceled and not ErrInvalidArgument", err)
	}
}
