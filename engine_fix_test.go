package wqrtq

// Regression tests for two serving-engine fixes: the dead-epoch cache
// sweep on mutation publish, and typed validation errors at the request
// boundary.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"wqrtq/internal/sample"
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
