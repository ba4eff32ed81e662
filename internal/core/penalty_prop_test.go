package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"wqrtq/internal/vec"
)

// Property: the penalty of an unchanged query is zero, and grows with the
// magnitude of every individual change.
func TestPenaltyPropertiesQuick(t *testing.T) {
	pm := DefaultPenaltyModel()
	zeroOnIdentity := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(5)
		q := make(vec.Point, d)
		for i := range q {
			q[i] = r.Float64() * 10
		}
		wm := []vec.Weight{randWeight(r, d), randWeight(r, d)}
		if pm.QPenalty(q, q) != 0 {
			return false
		}
		if pm.WKPenalty(wm, wm, 5, 5, 9) != 0 {
			return false
		}
		return pm.TotalPenalty(q, q, wm, wm, 5, 5, 9) == 0
	}
	if err := quick.Check(zeroOnIdentity, nil); err != nil {
		t.Error(err)
	}

	monotoneInK := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		wm := []vec.Weight{randWeight(r, 3)}
		k := 1 + r.Intn(10)
		kMax := k + 1 + r.Intn(20)
		prev := -1.0
		for kp := k; kp <= kMax; kp++ {
			p := pm.WKPenalty(wm, wm, k, kp, kMax)
			if p < prev {
				return false
			}
			prev = p
		}
		// At k' = k'max with unchanged weights the penalty is exactly α.
		return prev == pm.Alpha
	}
	if err := quick.Check(monotoneInK, nil); err != nil {
		t.Error(err)
	}

	scaleInvariantQ := func(seed int64) bool {
		// Penalty(q') is scale-invariant: scaling both points by c > 0
		// leaves it unchanged.
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(4)
		q := make(vec.Point, d)
		qp := make(vec.Point, d)
		for i := range q {
			q[i] = r.Float64()*9 + 1
			qp[i] = q[i] * r.Float64()
		}
		c := r.Float64()*5 + 0.1
		qs := make(vec.Point, d)
		qps := make(vec.Point, d)
		for i := range q {
			qs[i] = q[i] * c
			qps[i] = qp[i] * c
		}
		a := pm.QPenalty(q, qp)
		b := pm.QPenalty(qs, qps)
		return a-b < 1e-12 && b-a < 1e-12
	}
	if err := quick.Check(scaleInvariantQ, nil); err != nil {
		t.Error(err)
	}
}

// Property: normalized ΔWm is always at most 1 (that is the point of the
// printed Eq. (4) normalization).
func TestNormalizedDeltaWBoundedQuick(t *testing.T) {
	pm := DefaultPenaltyModel()
	pm.NormalizeWeights = true
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(5)
		m := 1 + r.Intn(5)
		a := make([]vec.Weight, m)
		b := make([]vec.Weight, m)
		for i := 0; i < m; i++ {
			a[i] = randWeight(r, d)
			b[i] = randWeight(r, d)
		}
		dw := pm.DeltaW(a, b)
		return dw >= 0 && dw <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Determinism: MWK with the same seed returns byte-identical refinements.
func TestMWKDeterministic(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	a, err := MWK(context.Background(), tr, nil, paperQ, 3, paperWm, 300, rand.New(rand.NewSource(42)), pm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MWK(context.Background(), tr, nil, paperQ, 3, paperWm, 300, rand.New(rand.NewSource(42)), pm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Penalty != b.Penalty || a.RefinedK != b.RefinedK {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	for i := range a.RefinedWm {
		if !vec.Equal(vec.Point(a.RefinedWm[i]), vec.Point(b.RefinedWm[i])) {
			t.Errorf("refined vector %d differs", i)
		}
	}
}

// The refined Wm never leaves the weighting simplex.
func TestMWKRefinedVectorsValidQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := paperTree()
		wm := []vec.Weight{randWeight(r, 2), randWeight(r, 2)}
		res, err := MWK(context.Background(), tr, nil, paperQ, 2, wm, 200, rand.New(rand.NewSource(seed+1)), DefaultPenaltyModel())
		if err != nil {
			return false
		}
		for _, w := range res.RefinedWm {
			if vec.ValidateWeight(w) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
