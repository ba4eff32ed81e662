package wqrtq

import (
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
)

// TestWhyNotScaleByTwo is a metamorphic check of the three refinements:
// doubling every coordinate of every point and of q doubles every score
// exactly (a multiplication by two is exact in binary floating point), so
// every rank, every sample's fate and every penalty ratio is unchanged.
// The index over the doubled points must therefore answer each why-not
// question with the same MWK refinement and with MQP's and MQWK's refined
// query points doubled bit for bit, penalties included.
func TestWhyNotScaleByTwo(t *testing.T) {
	const n, k, rank, samples = 5000, 10, 101, 50
	for _, ds := range []*dataset.Dataset{
		dataset.Independent(n, 3, 1),
		dataset.HouseholdLike(n, 2),
		dataset.NBALike(n, 3),
		dataset.Anticorrelated(n, 4, 4),
	} {
		pts := make([][]float64, len(ds.Points))
		doubled := make([][]float64, len(ds.Points))
		for i, p := range ds.Points {
			pts[i] = p
			doubled[i] = times2(p)
		}
		ix, err := NewIndex(pts)
		if err != nil {
			t.Fatal(err)
		}
		ix2, err := NewIndex(doubled)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			wl, err := dataset.MakeWhyNot(ds, k, rank, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			wm := [][]float64{wl.Wm[0]}
			opts := Options{SampleSize: samples, Seed: seed}
			got, err := ix.WhyNot(wl.Q, k, wm, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Missing) != 1 {
				t.Fatalf("d = %d seed %d: the why-not vector is not missing: %v", ds.Dim, seed, got.Missing)
			}
			got2, err := ix2.WhyNot(times2(wl.Q), k, wm, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantMQP := got.ModifiedQuery
			wantMQP.Q = times2(wantMQP.Q)
			wantMQWK := got.ModifiedAll
			wantMQWK.Q = times2(wantMQWK.Q)
			if !reflect.DeepEqual(got2.ModifiedQuery, wantMQP) {
				t.Errorf("d = %d seed %d: MQP over 2P = %+v, want 2 × %+v", ds.Dim, seed, got2.ModifiedQuery, got.ModifiedQuery)
			}
			if !reflect.DeepEqual(got2.ModifiedPreferences, got.ModifiedPreferences) {
				t.Errorf("d = %d seed %d: MWK over 2P = %+v, want %+v", ds.Dim, seed, got2.ModifiedPreferences, got.ModifiedPreferences)
			}
			if !reflect.DeepEqual(got2.ModifiedAll, wantMQWK) {
				t.Errorf("d = %d seed %d: MQWK over 2P = %+v, want 2 × %+v", ds.Dim, seed, got2.ModifiedAll, got.ModifiedAll)
			}
		}
	}
}

// times2 returns a copy of p with every coordinate doubled.
func times2(p []float64) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		out[j] = 2 * v
	}
	return out
}
