package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"wqrtq/internal/rtree"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// The running example of the paper: computers of Figure 1(a), query point
// q = (4, 4), customer preferences of Figure 1(b), k = 3, and the why-not
// vectors Kevin (0.1, 0.9) and Julia (0.9, 0.1).
func paperPoints() []vec.Point {
	return []vec.Point{
		{2, 1}, {6, 3}, {1, 9}, {9, 3}, {7, 5}, {5, 8}, {3, 7},
	}
}

func paperTree() *rtree.Tree {
	return rtree.Bulk(paperPoints(), nil, rtree.Options{PageSize: 128})
}

var (
	paperQ     = vec.Point{4, 4}
	paperKevin = vec.Weight{0.1, 0.9}
	paperJulia = vec.Weight{0.9, 0.1}
	paperWm    = []vec.Weight{paperKevin, paperJulia}
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float64() * 10
		}
		pts[i] = p
	}
	return pts
}

func randWeight(r *rand.Rand, d int) vec.Weight {
	w := make(vec.Weight, d)
	s := 0.0
	for i := range w {
		w[i] = r.Float64() + 1e-3
		s += w[i]
	}
	for i := range w {
		w[i] /= s
	}
	return w
}

// --- Penalty model: the paper's worked examples --------------------------

func TestQPenaltyPaperNumbers(t *testing.T) {
	pm := DefaultPenaltyModel()
	// §4.2: Penalty(q'=(3,2.5)) = 0.318, Penalty(q''=(2.5,3.5)) = 0.279.
	if got := pm.QPenalty(paperQ, vec.Point{3, 2.5}); !almost(got, 0.318, 1e-3) {
		t.Errorf("QPenalty(q') = %v, want 0.318", got)
	}
	if got := pm.QPenalty(paperQ, vec.Point{2.5, 3.5}); !almost(got, 0.279, 1e-3) {
		t.Errorf("QPenalty(q'') = %v, want 0.279", got)
	}
}

func TestWKPenaltyPaperNumbers(t *testing.T) {
	pm := DefaultPenaltyModel()
	// §4.3: Kevin → (0.18, 0.82), Julia → (0.75, 0.25), k'max = 4, k' = 3:
	// penalty "0.121" (exact value 0.1202 with the concatenated L2 ΔWm).
	refined := []vec.Weight{{0.18, 0.82}, {0.75, 0.25}}
	got := pm.WKPenalty(paperWm, refined, 3, 3, 4)
	if !almost(got, 0.1202, 1e-3) {
		t.Errorf("WKPenalty = %v, want 0.120", got)
	}
	// Alternative: keep the vectors, raise k to 4: penalty 0.5.
	got = pm.WKPenalty(paperWm, paperWm, 3, 4, 4)
	if !almost(got, 0.5, 1e-12) {
		t.Errorf("WKPenalty(k'=4) = %v, want 0.5", got)
	}
	// Decreasing k is free (§4.3).
	got = pm.WKPenalty(paperWm, paperWm, 6, 3, 7)
	if got != 0 {
		t.Errorf("WKPenalty with k' < k = %v, want 0", got)
	}
}

func TestTotalPenaltyPaperNumbers(t *testing.T) {
	pm := DefaultPenaltyModel()
	// §4.4: q' = (3.8, 3.8), Kevin → (0.135, 0.865), Julia → (0.8, 0.2),
	// k unchanged: penalty "0.06" (exact 0.0625).
	refined := []vec.Weight{{0.135, 0.865}, {0.8, 0.2}}
	got := pm.TotalPenalty(paperQ, vec.Point{3.8, 3.8}, paperWm, refined, 3, 3, 4)
	if !almost(got, 0.0625, 1e-3) {
		t.Errorf("TotalPenalty = %v, want 0.0625", got)
	}
}

func TestNormalizedVariantMatchesEquation4(t *testing.T) {
	pm := DefaultPenaltyModel()
	pm.NormalizeWeights = true
	refined := []vec.Weight{{0.18, 0.82}, {0.75, 0.25}}
	// With ΔWm,max = sqrt(2·|Wm|) = 2 the printed Eq. (4) gives 0.0601.
	got := pm.WKPenalty(paperWm, refined, 3, 3, 4)
	if !almost(got, 0.0601, 1e-3) {
		t.Errorf("normalized WKPenalty = %v, want 0.0601", got)
	}
}

func TestPenaltyModelValidate(t *testing.T) {
	if err := DefaultPenaltyModel().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	bad := PenaltyModel{Alpha: 0.7, Beta: 0.7, Gamma: 0.5, Lambda: 0.5}
	if err := bad.Validate(); err == nil {
		t.Error("alpha+beta != 1 accepted")
	}
	bad = PenaltyModel{Alpha: 0.5, Beta: 0.5, Gamma: -0.5, Lambda: 1.5}
	if err := bad.Validate(); err == nil {
		t.Error("negative gamma accepted")
	}
}

// --- MQP ------------------------------------------------------------------

func TestMQPPaperExample(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	res, err := MQP(context.Background(), tr, nil, paperQ, 3, paperWm, pm)
	if err != nil {
		t.Fatal(err)
	}
	// The k-th points bounding the safe region are p4 (Kevin) and p7
	// (Julia), Figure 5(b).
	if res.KthPoints[0].ID != 3 || res.KthPoints[1].ID != 6 {
		t.Errorf("k-th points = %d, %d, want p4, p7", res.KthPoints[0].ID, res.KthPoints[1].ID)
	}
	// Analytic optimum: intersection of the two scoring hyperplanes
	// 0.1x + 0.9y = 3.6 and 0.9x + 0.1y = 3.4, q' = (3.375, 3.625), with
	// penalty ‖(0.625, 0.375)‖/‖(4, 4)‖ = √0.53125/√32 ≈ 0.128847.
	if !almost(res.RefinedQ[0], 3.375, 1e-12) || !almost(res.RefinedQ[1], 3.625, 1e-12) {
		t.Errorf("RefinedQ = %v, want (3.375, 3.625)", res.RefinedQ)
	}
	if want := math.Sqrt(0.53125) / math.Sqrt(32); !almost(res.Penalty, want, 1e-12) {
		t.Errorf("Penalty = %v, want %v", res.Penalty, want)
	}
	// The optimum beats both hand-picked candidates from the paper (0.318
	// and 0.279) and passes verification.
	if res.Penalty > 0.279 {
		t.Errorf("penalty %v worse than the paper's hand-picked candidates", res.Penalty)
	}
	if !VerifyRefinement(tr, res.RefinedQ, 3, paperWm) {
		t.Error("refined q fails verification")
	}
}

func TestMQPAlwaysFeasibleQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(300)
		d := 2 + r.Intn(3)
		pts := randPoints(r, n, d)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d)[0]
		k := 1 + r.Intn(10)
		m := 1 + r.Intn(4)
		wm := make([]vec.Weight, m)
		for i := range wm {
			wm[i] = randWeight(r, d)
		}
		pm := DefaultPenaltyModel()
		res, err := MQP(context.Background(), tr, nil, q, k, wm, pm)
		if err != nil {
			return false
		}
		if !VerifyRefinement(tr, res.RefinedQ, k, wm) {
			return false
		}
		// Box constraint: 0 <= q' <= q.
		for i := range res.RefinedQ {
			if res.RefinedQ[i] < -1e-12 || res.RefinedQ[i] > q[i]+1e-12 {
				return false
			}
		}
		return res.Penalty >= 0 && res.Penalty <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMQPAlreadySatisfied(t *testing.T) {
	// Why-not vectors that already contain q: the safe-region constraints
	// are inactive and q is returned unchanged (penalty 0).
	tr := paperTree()
	res, err := MQP(context.Background(), tr, nil, paperQ, 3, []vec.Weight{{0.5, 0.5}}, DefaultPenaltyModel())
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Penalty, 0, 1e-6) {
		t.Errorf("penalty = %v, want ~0", res.Penalty)
	}
}

func TestMQPInputValidation(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	if _, err := MQP(context.Background(), tr, nil, paperQ, 0, paperWm, pm); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := MQP(context.Background(), tr, nil, paperQ, 3, nil, pm); err == nil {
		t.Error("empty Wm accepted")
	}
	if _, err := MQP(context.Background(), tr, nil, paperQ, 3, []vec.Weight{{0.7, 0.7}}, pm); err == nil {
		t.Error("invalid weight accepted")
	}
	if _, err := MQP(context.Background(), tr, nil, paperQ, 100, paperWm, pm); err == nil {
		t.Error("k > |P| accepted")
	}
	if _, err := MQP(context.Background(), tr, nil, vec.Point{1, 2, 3}, 3, paperWm, pm); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// --- MWK ------------------------------------------------------------------

func TestMWKPaperExample(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	rng := rand.New(rand.NewSource(1))
	res, err := MWK(context.Background(), tr, nil, paperQ, 3, paperWm, 2000, rng, pm)
	if err != nil {
		t.Fatal(err)
	}
	if res.KMax != 4 {
		t.Errorf("KMax = %d, want 4 (Lemma 4 example)", res.KMax)
	}
	// The exact 2-D optimum moves Kevin to λ=1/6 and Julia to λ=3/4 with
	// k'=3: penalty 0.11607. The sampler must find it exactly here, because
	// in 2-D every hyperplane sample is one of the four candidate points.
	if !almost(res.Penalty, 0.11607, 1e-4) {
		t.Errorf("Penalty = %v, want 0.11607", res.Penalty)
	}
	if res.RefinedK != 3 {
		t.Errorf("RefinedK = %d, want 3", res.RefinedK)
	}
	if !almost(res.RefinedWm[0][0], 1.0/6, 1e-9) || !almost(res.RefinedWm[1][0], 3.0/4, 1e-9) {
		t.Errorf("RefinedWm = %v, want λ=1/6 and λ=3/4", res.RefinedWm)
	}
	// Beats the paper's illustrative modification (0.1202) and the k-only
	// alternative (0.5).
	if res.Penalty > 0.1202 {
		t.Errorf("penalty %v worse than the paper's example modification", res.Penalty)
	}
	if !VerifyRefinement(tr, paperQ, res.RefinedK, res.RefinedWm) {
		t.Error("refined (Wm', k') fails verification")
	}
}

func TestMWKMatchesExact2DQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(150)
		pts := randPoints(r, n, 2)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, 2)[0]
		k := 1 + r.Intn(6)
		m := 1 + r.Intn(3)
		wm := make([]vec.Weight, m)
		for i := range wm {
			wm[i] = randWeight(r, 2)
		}
		pm := DefaultPenaltyModel()
		exact, err := ExactMWK2D(pts, q, k, wm, pm)
		if err != nil {
			return false
		}
		got, err := MWK(context.Background(), tr, nil, q, k, wm, 600, rand.New(rand.NewSource(seed+1)), pm)
		if err != nil {
			return false
		}
		// Sampling can never beat the exact optimum...
		if got.Penalty < exact.Penalty-1e-9 {
			return false
		}
		// ...and can never be worse than the k-only baseline.
		if got.Penalty > pm.Alpha+1e-9 {
			return false
		}
		// The refinement must be valid.
		return VerifyRefinement(tr, q, got.RefinedK, got.RefinedWm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMWKAlreadySatisfied(t *testing.T) {
	tr := paperTree()
	rng := rand.New(rand.NewSource(2))
	res, err := MWK(context.Background(), tr, nil, paperQ, 3, []vec.Weight{{0.5, 0.5}}, 100, rng, DefaultPenaltyModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalty != 0 || res.RefinedK != 3 {
		t.Errorf("already-satisfied vector: penalty %v, k' %d", res.Penalty, res.RefinedK)
	}
}

func TestMWKZeroSamplesFallsBackToKOnly(t *testing.T) {
	tr := paperTree()
	rng := rand.New(rand.NewSource(3))
	pm := DefaultPenaltyModel()
	res, err := MWK(context.Background(), tr, nil, paperQ, 3, paperWm, 0, rng, pm)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BaselineChosen || res.RefinedK != 4 {
		t.Errorf("expected k-only baseline with k'=4, got %+v", res)
	}
	if !almost(res.Penalty, pm.Alpha, 1e-12) {
		t.Errorf("baseline penalty = %v, want alpha", res.Penalty)
	}
}

func TestExactMWK2DPaperExample(t *testing.T) {
	pm := DefaultPenaltyModel()
	res, err := ExactMWK2D(paperPoints(), paperQ, 3, paperWm, pm)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.Penalty, 0.11607, 1e-4) {
		t.Errorf("exact penalty = %v, want 0.11607", res.Penalty)
	}
	if res.RefinedK != 3 {
		t.Errorf("exact k' = %d, want 3", res.RefinedK)
	}
}

// --- MQWK -------------------------------------------------------------------

func TestMQWKPaperExample(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	res, err := MQWK(context.Background(), tr, nil, paperQ, 3, paperWm, 400, 400, 7, 0, pm)
	if err != nil {
		t.Fatal(err)
	}
	// Candidates include the pure solutions: γ·0.12886 = 0.0644 and
	// λ·0.11607 = 0.0580, so the result is at least that good — and beats
	// the paper's illustrative 0.06.
	if res.Penalty > 0.05804+1e-6 {
		t.Errorf("Penalty = %v, want <= 0.0580", res.Penalty)
	}
	if !VerifyRefinement(tr, res.RefinedQ, res.RefinedK, res.RefinedWm) {
		t.Error("refined (q', Wm', k') fails verification")
	}
	// q' must stay in the box [q_min, q].
	for i := range res.RefinedQ {
		if res.RefinedQ[i] < res.QMin[i]-1e-9 || res.RefinedQ[i] > paperQ[i]+1e-9 {
			t.Errorf("RefinedQ[%d] = %v outside [%v, %v]", i, res.RefinedQ[i], res.QMin[i], paperQ[i])
		}
	}
}

func TestMQWKNeverWorseThanPureSolutionsQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(120)
		d := 2 + r.Intn(2)
		pts := randPoints(r, n, d)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d)[0]
		k := 1 + r.Intn(5)
		wm := []vec.Weight{randWeight(r, d)}
		pm := DefaultPenaltyModel()

		mqp, err := MQP(context.Background(), tr, nil, q, k, wm, pm)
		if err != nil {
			return false
		}
		// Same seed for both: MQWK's point 0 (q' = q) runs MWK's search on
		// MWK's stream, so the pure-solution bound holds exactly.
		mwk, err := MWK(context.Background(), tr, nil, q, k, wm, 200, rand.New(rand.NewSource(seed+1)), pm)
		if err != nil {
			return false
		}
		all, err := MQWK(context.Background(), tr, nil, q, k, wm, 200, 50, seed+1, 0, pm)
		if err != nil {
			return false
		}
		if all.Penalty > pm.Gamma*mqp.Penalty+1e-9 {
			return false
		}
		if all.Penalty > pm.Lambda*mwk.Penalty {
			return false
		}
		return VerifyRefinement(tr, all.RefinedQ, all.RefinedK, all.RefinedWm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMQWKReusesSingleTraversal(t *testing.T) {
	tr := paperTree()
	res, err := MQWK(context.Background(), tr, nil, paperQ, 3, paperWm, 50, 20, 9, 0, DefaultPenaltyModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeTraversals != 2 {
		t.Errorf("TreeTraversals = %d, want 2 (reuse technique)", res.TreeTraversals)
	}
	if res.CandidatesCached != 5 {
		t.Errorf("CandidatesCached = %d, want 5 (p1, p2, p3, p4, p7)", res.CandidatesCached)
	}
}

// TestMQWKWorkersIdentical pins that workers only schedules: at one seed
// every worker count, the inline 0 and 1 and GOMAXPROCS (-1) included,
// returns the same result field for field.
func TestMQWKWorkersIdentical(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	base, err := MQWK(context.Background(), tr, nil, paperQ, 3, paperWm, 200, 50, 11, 0, pm)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, -1, runtime.GOMAXPROCS(0), 64} {
		got, err := MQWK(context.Background(), tr, nil, paperQ, 3, paperWm, 200, 50, 11, workers, pm)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: %+v, want %+v", workers, got, base)
		}
	}
}

func TestMQWKVerifiesAndBeatsPureSolutions(t *testing.T) {
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
	for _, workers := range []int{0, 4} {
		res, err := MQWK(context.Background(), tr, nil, q, 5, wm, 200, 100, 4, workers, pm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Penalty > pm.Gamma*mqp.Penalty+1e-9 {
			t.Errorf("workers=%d: MQWK penalty %v exceeds γ·MQP %v", workers, res.Penalty, pm.Gamma*mqp.Penalty)
		}
		if !VerifyRefinement(tr, res.RefinedQ, res.RefinedK, res.RefinedWm) {
			t.Errorf("workers=%d: refinement fails verification", workers)
		}
	}
}

func TestMQWKInputValidation(t *testing.T) {
	tr := paperTree()
	pm := DefaultPenaltyModel()
	for _, workers := range []int{0, 2} {
		if _, err := MQWK(context.Background(), tr, nil, paperQ, 0, paperWm, 10, 10, 1, workers, pm); err == nil {
			t.Errorf("workers=%d: k=0 accepted", workers)
		}
		if _, err := MQWK(context.Background(), tr, nil, paperQ, 3, paperWm, 10, -1, 1, workers, pm); err == nil {
			t.Errorf("workers=%d: negative query sample size accepted", workers)
		}
	}
}

// --- Explanations (first aspect, §3) ---------------------------------------

func TestExplainPaperExample(t *testing.T) {
	tr := paperTree()
	ex := Explain(tr, paperQ, paperWm)
	if len(ex) != 2 {
		t.Fatalf("explanations = %d, want 2", len(ex))
	}
	// Kevin: p1, p2, p4 responsible (§3).
	kevinIDs := make([]int32, len(ex[0]))
	for i, r := range ex[0] {
		kevinIDs[i] = r.ID
	}
	want := []int32{0, 1, 3}
	for i := range want {
		if kevinIDs[i] != want[i] {
			t.Errorf("Kevin explanation = %v, want %v", kevinIDs, want)
			break
		}
	}
	// Every explanation must have more than k-1 entries (q missing means
	// at least k better points).
	for i, e := range ex {
		if len(e) < 3 {
			t.Errorf("explanation %d has %d points, want >= k", i, len(e))
		}
	}
	_ = topk.Result{}
}

func TestMQPZeroCoordinateQuery(t *testing.T) {
	// Regression: a query point with a zero coordinate pins that dimension
	// (0 <= x <= 0); the projection max(0, q − Σλᵢwᵢ) keeps it exactly 0.
	r := rand.New(rand.NewSource(31))
	pts := randPoints(r, 200, 3)
	tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
	q := vec.Point{8, 6, 0}
	wm := []vec.Weight{{0.2, 0.3, 0.5}, {0.1, 0.1, 0.8}}
	res, err := MQP(context.Background(), tr, nil, q, 3, wm, DefaultPenaltyModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.RefinedQ[2] != 0 {
		t.Errorf("pinned dimension moved: %v", res.RefinedQ)
	}
	if !VerifyRefinement(tr, res.RefinedQ, 3, wm) {
		t.Error("refinement fails verification")
	}
	// Fully-zero q dominates everything: returned unchanged.
	origin := vec.Point{0, 0, 0}
	res, err = MQP(context.Background(), tr, nil, origin, 3, wm, DefaultPenaltyModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.Penalty != 0 || !vec.Equal(res.RefinedQ, origin) {
		t.Errorf("origin query modified: %+v", res)
	}
}
