package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

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
