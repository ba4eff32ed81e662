package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"strings"
	"testing"

	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// pearson computes the correlation of two attribute columns.
func pearson(ds *Dataset, a, b int) float64 {
	n := float64(len(ds.Points))
	var ma, mb float64
	for _, p := range ds.Points {
		ma += p[a]
		mb += p[b]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for _, p := range ds.Points {
		da, db := p[a]-ma, p[b]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	return cov / math.Sqrt(va*vb)
}

func allNonNegative(t *testing.T, ds *Dataset) {
	t.Helper()
	for i, p := range ds.Points {
		if err := vec.ValidatePoint(p); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
}

func TestIndependentShape(t *testing.T) {
	ds := Independent(5000, 3, 1)
	if len(ds.Points) != 5000 || ds.Dim != 3 {
		t.Fatalf("shape = %d×%d", len(ds.Points), ds.Dim)
	}
	allNonNegative(t, ds)
	// Independent columns: |correlation| small.
	if c := pearson(ds, 0, 1); math.Abs(c) > 0.06 {
		t.Errorf("independent correlation = %v, want ~0", c)
	}
}

func TestAnticorrelatedIsAnticorrelated(t *testing.T) {
	ds := Anticorrelated(5000, 2, 2)
	allNonNegative(t, ds)
	if c := pearson(ds, 0, 1); c > -0.5 {
		t.Errorf("anticorrelated correlation = %v, want strongly negative", c)
	}
}

func TestCorrelatedIsCorrelated(t *testing.T) {
	ds := Correlated(5000, 3, 3)
	allNonNegative(t, ds)
	if c := pearson(ds, 0, 2); c < 0.5 {
		t.Errorf("correlated correlation = %v, want strongly positive", c)
	}
}

func TestNBALikeShape(t *testing.T) {
	ds := NBALike(2000, 4)
	if ds.Dim != 13 {
		t.Fatalf("NBA dim = %d, want 13", ds.Dim)
	}
	allNonNegative(t, ds)
	// Player statistics share a talent factor: positive correlation.
	if c := pearson(ds, 0, 5); c < 0.3 {
		t.Errorf("NBA-like correlation = %v, want positive", c)
	}
}

func TestHouseholdLikeShape(t *testing.T) {
	ds := HouseholdLike(3000, 5)
	if ds.Dim != 6 {
		t.Fatalf("Household dim = %d, want 6", ds.Dim)
	}
	allNonNegative(t, ds)
	// Shares sum to 100 per tuple.
	for i, p := range ds.Points {
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Fatalf("point %d shares sum to %v, want 100", i, sum)
		}
	}
	// Competing shares: negative correlation.
	if c := pearson(ds, 0, 1); c > 0 {
		t.Errorf("household correlation = %v, want negative", c)
	}
}

func TestDeterminismBySeed(t *testing.T) {
	a := Independent(100, 3, 42)
	b := Independent(100, 3, 42)
	for i := range a.Points {
		if !vec.Equal(a.Points[i], b.Points[i]) {
			t.Fatal("same seed produced different datasets")
		}
	}
	c := Independent(100, 3, 43)
	same := true
	for i := range a.Points {
		if !vec.Equal(a.Points[i], c.Points[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"independent", "anticorrelated", "correlated", "nba", "household"} {
		ds, err := ByName(name, 50, 3, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ds.Points) != 50 {
			t.Fatalf("%s: %d points", name, len(ds.Points))
		}
	}
	if _, err := ByName("bogus", 10, 2, 1); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := Independent(200, 4, 7)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 4 || len(got.Points) != 200 {
		t.Fatalf("round trip shape = %d×%d", len(got.Points), got.Dim)
	}
	for i := range ds.Points {
		if !vec.Equal(ds.Points[i], got.Points[i]) {
			t.Fatalf("point %d differs after round trip", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged CSV accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("non-numeric CSV accepted")
	}
}

// TestReadCSVRaggedIsFieldCount pins who rejects a ragged row: the csv
// reader, which fixes the field count at the first row's.
func TestReadCSVRaggedIsFieldCount(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); !errors.Is(err, csv.ErrFieldCount) {
		t.Errorf("ragged CSV: err = %v, want csv.ErrFieldCount", err)
	}
}

func TestMakeWhyNotControlsRank(t *testing.T) {
	ds := Independent(5000, 3, 11)
	for _, target := range []int{11, 101, 501} {
		wl, err := MakeWhyNot(ds, 10, target, 2, 5)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		// The base-preference ranking must be close to the target (exact up
		// to data ties).
		got := topk.RankNaive(ds.Points, wl.BaseWeight, vec.Score(wl.BaseWeight, wl.Q))
		if got < target-1 || got > target+1 {
			t.Errorf("target %d: base rank = %d", target, got)
		}
		// Every why-not vector must genuinely miss q from its top-k.
		if len(wl.Wm) != 2 {
			t.Fatalf("target %d: |Wm| = %d", target, len(wl.Wm))
		}
		for i, w := range wl.Wm {
			r := topk.RankNaive(ds.Points, w, vec.Score(w, wl.Q))
			if r <= wl.K {
				t.Errorf("target %d: Wm[%d] has rank %d <= k", target, i, r)
			}
			if r != wl.ActualRanks[i] {
				t.Errorf("target %d: recorded rank %d != actual %d", target, wl.ActualRanks[i], r)
			}
		}
	}
}

func TestMakeWhyNotValidation(t *testing.T) {
	ds := Independent(100, 2, 1)
	if _, err := MakeWhyNot(ds, 10, 5, 1, 1); err == nil {
		t.Error("target rank <= k accepted")
	}
	if _, err := MakeWhyNot(ds, 10, 1000, 1, 1); err == nil {
		t.Error("target rank > |P| accepted")
	}
	if _, err := MakeWhyNot(ds, 10, 50, 0, 1); err == nil {
		t.Error("nWm = 0 accepted")
	}
}

// TestMakeWhyNotOriginAnchor: with targetRank or more points at the
// origin, the anchor is the origin under every base preference, so
// MakeWhyNot returns ErrOriginAnchor at once, for every seed; with fewer,
// it still synthesizes the workload.
func TestMakeWhyNotOriginAnchor(t *testing.T) {
	ds := Independent(2000, 3, 4)
	for i := 0; i < 120; i++ {
		ds.Points[i] = make(vec.Point, 3)
	}
	for seed := int64(1); seed <= 5; seed++ {
		if _, err := MakeWhyNot(ds, 10, 101, 1, seed); !errors.Is(err, ErrOriginAnchor) {
			t.Errorf("seed %d, 120 points at the origin, rank 101: err = %v, want ErrOriginAnchor", seed, err)
		}
	}
	wl, err := MakeWhyNot(ds, 10, 301, 1, 1)
	if err != nil {
		t.Fatalf("120 points at the origin, rank 301: %v", err)
	}
	if got := topk.RankNaive(ds.Points, wl.BaseWeight, vec.Score(wl.BaseWeight, wl.Q)); got < 300 || got > 302 {
		t.Errorf("rank 301: base rank = %d", got)
	}
	co := Correlated(100000, 3, 1)
	if _, err := MakeWhyNot(co, 10, 101, 1, 1); !errors.Is(err, ErrOriginAnchor) {
		t.Errorf("correlated n = 100k, rank 101: err = %v, want ErrOriginAnchor", err)
	}
}

func TestTreeConstruction(t *testing.T) {
	ds := Independent(1000, 3, 9)
	tr := ds.Tree()
	if tr.Len() != 1000 || tr.Dim() != 3 {
		t.Fatalf("tree shape %d×%d", tr.Len(), tr.Dim())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClusteredShape(t *testing.T) {
	ds := Clustered(3000, 3, 4, 8)
	if len(ds.Points) != 3000 || ds.Dim != 3 {
		t.Fatalf("shape = %d×%d", len(ds.Points), ds.Dim)
	}
	allNonNegative(t, ds)
	// Clustering: average nearest-neighbor distance much smaller than for
	// uniform data of the same size.
	meanNN := func(d *Dataset) float64 {
		sum := 0.0
		for i := 0; i < 200; i++ {
			best := math.Inf(1)
			for j, p := range d.Points {
				if j == i {
					continue
				}
				if dd := vecDist(d.Points[i], p); dd < best {
					best = dd
				}
			}
			sum += best
		}
		return sum / 200
	}
	uni := Independent(3000, 3, 8)
	if meanNN(ds) >= meanNN(uni) {
		t.Error("clustered data not denser than uniform")
	}
	if _, err := ByName("clustered", 50, 3, 1); err != nil {
		t.Errorf("ByName(clustered): %v", err)
	}
}

func vecDist(a, b vec.Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
