package wqrtq

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// The paper's running example (Figure 1).
var (
	paperData = [][]float64{
		{2, 1}, {6, 3}, {1, 9}, {9, 3}, {7, 5}, {5, 8}, {3, 7},
	}
	paperQ = []float64{4, 4}
	paperW = [][]float64{
		{0.9, 0.1}, // Julia
		{0.5, 0.5}, // Tony
		{0.3, 0.7}, // Anna
		{0.1, 0.9}, // Kevin
	}
)

func paperIndex(t *testing.T) *Index {
	t.Helper()
	ix, err := NewIndex(paperData)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewIndex([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged dataset accepted")
	}
	if _, err := NewIndex([][]float64{{1, -2}}); err == nil {
		t.Error("negative attribute accepted")
	}
	ix := paperIndex(t)
	if ix.Len() != 7 || ix.Dim() != 2 {
		t.Errorf("index shape %d×%d", ix.Len(), ix.Dim())
	}
}

func TestTopKFacade(t *testing.T) {
	ix := paperIndex(t)
	got, err := ix.TopK([]float64{0.1, 0.9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 3 {
		t.Errorf("TopK(kevin) = %v, want p1, p2, p4", got)
	}
	if _, err := ix.TopK([]float64{0.6, 0.6}, 3); err == nil {
		t.Error("invalid weight accepted")
	}
	if _, err := ix.TopK([]float64{0.5, 0.5}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestReverseTopKFacade(t *testing.T) {
	ix := paperIndex(t)
	got, err := ix.ReverseTopK(paperW, paperQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("BRTOP3 = %v, want [1 2] (Tony, Anna)", got)
	}
}

func TestReverseTopKMono2DFacade(t *testing.T) {
	ix := paperIndex(t)
	ivs, err := ix.ReverseTopKMono2D(paperQ, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 1 || math.Abs(ivs[0].Lo-1.0/6) > 1e-9 || math.Abs(ivs[0].Hi-0.75) > 1e-9 {
		t.Errorf("MRTOP3 = %v, want [1/6, 3/4]", ivs)
	}
	// Dimension guard.
	ix3, err := NewIndex([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix3.ReverseTopKMono2D([]float64{1, 1, 1}, 1); err == nil {
		t.Error("3-D monochromatic accepted")
	}

	// ReverseTopKMonoND at d = 2 is ReverseTopKMono2D.
	ndIvs, cells, err := ix.ReverseTopKMonoND(paperQ, 3)
	if err != nil || cells != nil || !reflect.DeepEqual(ndIvs, ivs) {
		t.Errorf("ReverseTopKMonoND (2-D) = %v, %v, %v; want %v, no cells, no error", ndIvs, cells, err, ivs)
	}

	// At d = 3 it returns cells and no intervals, and every Full cell's
	// midpoint has q in its top-k.
	ds := dataset.Independent(300, 3, 5)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ixND, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	q, k := []float64{0.1, 0.1, 0.1}, 5
	ndIvs, cells, err = ixND.ReverseTopKMonoND(q, k)
	if err != nil || ndIvs != nil || len(cells) == 0 {
		t.Fatalf("ReverseTopKMonoND (3-D) = %v, %d cells, %v; want no intervals, cells, no error", ndIvs, len(cells), err)
	}
	full := 0
	for _, c := range cells {
		if !c.Full {
			continue
		}
		full++
		mid := make(vec.Weight, 3)
		for j := range mid {
			mid[j] = (c.Lo[j] + c.Hi[j]) / 2
		}
		if !topk.InTopK(ixND.tree, mid, q, k) {
			t.Errorf("Full cell [%v, %v]: midpoint %v does not have q in its top-%d", c.Lo, c.Hi, mid, k)
		}
	}
	if full == 0 {
		t.Error("no Full cell to check")
	}

	// Invalid arguments, and a 3-D query with the cell index off.
	for _, tc := range []struct {
		ix *Index
		q  []float64
		k  int
	}{{ix, paperQ, 0}, {ix, []float64{1, 1, 1}, 3}, {ixND, q, 0}, {ixND, []float64{1, 1}, k}} {
		if _, _, err := tc.ix.ReverseTopKMonoND(tc.q, tc.k); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("ReverseTopKMonoND(%v, %d) on %d-D data: err = %v, want ErrInvalidArgument", tc.q, tc.k, tc.ix.Dim(), err)
		}
	}
	ixND.cellOff = true
	if _, _, err := ixND.ReverseTopKMonoND(q, k); err == nil {
		t.Error("3-D ReverseTopKMonoND answered with the cell index off")
	}
}

func TestRankFacade(t *testing.T) {
	ix := paperIndex(t)
	r, err := ix.Rank([]float64{0.1, 0.9}, paperQ)
	if err != nil {
		t.Fatal(err)
	}
	if r != 4 {
		t.Errorf("Rank = %d, want 4", r)
	}
}

func TestWhyNotFullPipeline(t *testing.T) {
	ix := paperIndex(t)
	ans, err := ix.WhyNot(paperQ, 3, paperW, Options{SampleSize: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Missing) != 2 || ans.Missing[0] != 0 || ans.Missing[1] != 3 {
		t.Fatalf("Missing = %v, want [0 3] (Julia, Kevin)", ans.Missing)
	}
	// Explanations: at least k = 3 points responsible per missing vector.
	for i, ex := range ans.Explanations {
		if len(ex) < 3 {
			t.Errorf("explanation %d has %d points, want >= 3", i, len(ex))
		}
	}
	// All three refinements must verify.
	if ok, _ := ix.Verify(ans.ModifiedQuery.Q, 3, [][]float64{paperW[0], paperW[3]}); !ok {
		t.Error("ModifyQuery result fails verification")
	}
	if ok, _ := ix.Verify(paperQ, ans.ModifiedPreferences.K, ans.ModifiedPreferences.Wm); !ok {
		t.Error("ModifyPreferences result fails verification")
	}
	if ok, _ := ix.Verify(ans.ModifiedAll.Q, ans.ModifiedAll.K, ans.ModifiedAll.Wm); !ok {
		t.Error("ModifyAll result fails verification")
	}
	// Golden penalties for the running example (see internal/core tests):
	// MQP optimum 0.1289, MWK optimum 0.1161, MQWK <= λ·MWK.
	if math.Abs(ans.ModifiedQuery.Penalty-0.12886) > 1e-3 {
		t.Errorf("MQP penalty = %v, want 0.1289", ans.ModifiedQuery.Penalty)
	}
	if math.Abs(ans.ModifiedPreferences.Penalty-0.11607) > 1e-3 {
		t.Errorf("MWK penalty = %v, want 0.1161", ans.ModifiedPreferences.Penalty)
	}
	if ans.ModifiedAll.Penalty > 0.0581 {
		t.Errorf("MQWK penalty = %v, want <= 0.0581", ans.ModifiedAll.Penalty)
	}
	if ans.ModifiedPreferences.KMax != 4 {
		t.Errorf("KMax = %d, want 4", ans.ModifiedPreferences.KMax)
	}
}

func TestWhyNotNothingMissing(t *testing.T) {
	ix := paperIndex(t)
	ans, err := ix.WhyNot(paperQ, 3, [][]float64{{0.5, 0.5}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Missing) != 0 {
		t.Errorf("Missing = %v, want empty", ans.Missing)
	}
	if len(ans.Result) != 1 {
		t.Errorf("Result = %v, want [0]", ans.Result)
	}
}

func TestOptionsDefaultsAndValidation(t *testing.T) {
	ix := paperIndex(t)
	wm := [][]float64{{0.1, 0.9}}
	// Zero options resolve to paper defaults and work end to end.
	if _, err := ix.ModifyPreferences(paperQ, 3, wm, Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	// Inconsistent penalty weights are rejected.
	bad := Options{Penalty: PenaltyModel{Alpha: 0.8, Beta: 0.8, Gamma: 0.5, Lambda: 0.5}}
	if _, err := ix.ModifyPreferences(paperQ, 3, wm, bad); err == nil {
		t.Error("alpha+beta != 1 accepted")
	}
	if _, err := ix.ModifyPreferences(paperQ, 3, wm, Options{SampleSize: -1}); err == nil {
		t.Error("negative sample size accepted")
	}
}

// Integration: a medium synthetic market where the full pipeline must hold
// its invariants end to end, through the public API only.
func TestIntegrationSyntheticMarket(t *testing.T) {
	ds := dataset.Independent(4000, 3, 77)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := dataset.MakeWhyNot(ds, 10, 101, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	W := make([][]float64, len(wl.Wm))
	for i, w := range wl.Wm {
		W[i] = w
	}
	ans, err := ix.WhyNot(wl.Q, wl.K, W, Options{SampleSize: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Missing) != 3 {
		t.Fatalf("Missing = %v, want all 3 vectors", ans.Missing)
	}
	if ok, _ := ix.Verify(ans.ModifiedQuery.Q, wl.K, W); !ok {
		t.Error("MQP refinement invalid")
	}
	if ok, _ := ix.Verify(wl.Q, ans.ModifiedPreferences.K, ans.ModifiedPreferences.Wm); !ok {
		t.Error("MWK refinement invalid")
	}
	if ok, _ := ix.Verify(ans.ModifiedAll.Q, ans.ModifiedAll.K, ans.ModifiedAll.Wm); !ok {
		t.Error("MQWK refinement invalid")
	}
	// Penalty ordering invariants.
	pm := ans.ModifiedAll.Penalty
	if pm > 0.5*ans.ModifiedQuery.Penalty+1e-9 {
		t.Errorf("MQWK %v > γ·MQP %v", pm, 0.5*ans.ModifiedQuery.Penalty)
	}
	for _, p := range []float64{ans.ModifiedQuery.Penalty, ans.ModifiedPreferences.Penalty, pm} {
		if p < 0 || p > 1 {
			t.Errorf("penalty %v outside [0, 1]", p)
		}
	}
}

func TestConcurrentReads(t *testing.T) {
	ix := paperIndex(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				lam := rng.Float64()
				if _, err := ix.TopK([]float64{lam, 1 - lam}, 3); err != nil {
					done <- err
					return
				}
				if _, err := ix.Rank([]float64{lam, 1 - lam}, paperQ); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
