package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

func TestMWKPerVectorPaperExample(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	rng := rand.New(rand.NewSource(1))
	res, err := MWKPerVector(context.Background(), tr, nil, paperQ, 3, paperWm, 2000, rng, pm)
	if err != nil {
		t.Fatal(err)
	}
	// In 2-D every sample is one of four fixed points; the per-vector
	// closest choices are λ=1/6 for Kevin and λ=3/4 for Julia, which happen
	// to coincide with the scanning optimum here.
	if !almost(res.Penalty, 0.11607, 1e-4) {
		t.Errorf("penalty = %v, want 0.11607", res.Penalty)
	}
	if !VerifyRefinement(tr, paperQ, res.RefinedK, res.RefinedWm) {
		t.Error("refinement fails verification")
	}
}

func TestMWKPerVectorNeverBeatsScanQuick(t *testing.T) {
	// §4.3: the per-vector strategy makes ΔWm minimal but the *total*
	// penalty "may not be the minimum" — the Lemma 6 scan, given the same
	// samples, can only be equal or better.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(150)
		d := 2 + r.Intn(2)
		pts := randPoints(r, n, d)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d)[0]
		k := 1 + r.Intn(5)
		m := 1 + r.Intn(3)
		wm := make([]vec.Weight, m)
		for i := range wm {
			wm[i] = randWeight(r, d)
		}
		pm := DefaultPenaltyModel()
		scan, err := MWK(context.Background(), tr, nil, q, k, wm, 300, rand.New(rand.NewSource(seed+1)), pm)
		if err != nil {
			return false
		}
		per, err := MWKPerVector(context.Background(), tr, nil, q, k, wm, 300, rand.New(rand.NewSource(seed+1)), pm)
		if err != nil {
			return false
		}
		if !VerifyRefinement(tr, q, per.RefinedK, per.RefinedWm) {
			return false
		}
		// Identical sample stream: the scan dominates on penalty.
		return scan.Penalty <= per.Penalty+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMWKPerVectorAlreadySatisfied(t *testing.T) {
	tr := paperTree()
	rng := rand.New(rand.NewSource(2))
	res, err := MWKPerVector(context.Background(), tr, nil, paperQ, 3, []vec.Weight{{0.5, 0.5}}, 100, rng, DefaultPenaltyModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalty != 0 || res.RefinedK != 3 {
		t.Errorf("already-satisfied: %+v", res)
	}
}

func TestMQWKParallelMatchesDeterministicSeeding(t *testing.T) {
	// Same seed, different worker counts: identical result.
	tr := paperTree()
	pm := DefaultPenaltyModel()
	base, err := MQWKParallel(context.Background(), tr, nil, paperQ, 3, paperWm, 200, 50, 11, 1, pm)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		got, err := MQWKParallel(context.Background(), tr, nil, paperQ, 3, paperWm, 200, 50, 11, workers, pm)
		if err != nil {
			t.Fatal(err)
		}
		if got.Penalty != base.Penalty {
			t.Errorf("workers=%d: penalty %v != %v", workers, got.Penalty, base.Penalty)
		}
		if !vec.Equal(got.RefinedQ, base.RefinedQ) {
			t.Errorf("workers=%d: refined q differs", workers)
		}
		if got.RefinedK != base.RefinedK {
			t.Errorf("workers=%d: refined k differs", workers)
		}
	}
}

func TestMQWKParallelVerifiesAndBeatsPureSolutions(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 500, 3)
	tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 512})
	q := randPoints(r, 1, 3)[0]
	wm := []vec.Weight{randWeight(r, 3), randWeight(r, 3)}
	pm := DefaultPenaltyModel()
	mqp, err := MQP(context.Background(), tr, nil, q, 5, wm, pm)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MQWKParallel(context.Background(), tr, nil, q, 5, wm, 200, 100, 4, 0, pm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalty > pm.Gamma*mqp.Penalty+1e-9 {
		t.Errorf("parallel MQWK penalty %v exceeds γ·MQP %v", res.Penalty, pm.Gamma*mqp.Penalty)
	}
	if !VerifyRefinement(tr, res.RefinedQ, res.RefinedK, res.RefinedWm) {
		t.Error("refinement fails verification")
	}
}

func TestMQWKParallelInputValidation(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	if _, err := MQWKParallel(context.Background(), tr, nil, paperQ, 0, paperWm, 10, 10, 1, 0, pm); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := MQWKParallel(context.Background(), tr, nil, paperQ, 3, paperWm, 10, -1, 1, 0, pm); err == nil {
		t.Error("negative query sample size accepted")
	}
}
