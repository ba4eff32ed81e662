package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestScorePaperFigure1(t *testing.T) {
	// Scores from the paper's Figure 1(c): computers scored under the four
	// customer preferences, f(w, p) = w[price]*p.price + w[heat]*p.heat.
	points := []Point{
		{2, 1}, {6, 3}, {1, 9}, {9, 3}, {7, 5}, {5, 8}, {3, 7}, // p1..p7
	}
	q := Point{4, 4}
	julia := Weight{0.9, 0.1}
	tony := Weight{0.5, 0.5}
	anna := Weight{0.3, 0.7}
	kevin := Weight{0.1, 0.9}

	cases := []struct {
		name string
		w    Weight
		want []float64 // p1..p7, then q
	}{
		{"kevin", kevin, []float64{1.1, 3.3, 8.2, 3.6, 5.2, 7.7, 6.6, 4}},
		{"anna", anna, []float64{1.3, 3.9, 6.6, 4.8, 5.6, 7.1, 5.8, 4}},
		{"tony", tony, []float64{1.5, 4.5, 5, 6, 6, 6.5, 5, 4}},
		{"julia", julia, []float64{1.9, 5.7, 1.8, 8.4, 6.8, 5.3, 3.4, 4}},
	}
	for _, tc := range cases {
		for i, p := range points {
			if got := Score(tc.w, p); !almostEqual(got, tc.want[i], 1e-9) {
				t.Errorf("%s: Score(p%d) = %v, want %v", tc.name, i+1, got, tc.want[i])
			}
		}
		if got := Score(tc.w, q); !almostEqual(got, tc.want[7], 1e-9) {
			t.Errorf("%s: Score(q) = %v, want %v", tc.name, got, tc.want[7])
		}
	}
}

func TestScoreDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Score(Weight{0.5, 0.5}, Point{1})
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b Point
		want bool
	}{
		{Point{1, 1}, Point{2, 2}, true},
		{Point{1, 2}, Point{1, 3}, true},
		{Point{1, 1}, Point{1, 1}, false}, // identical: no strict dimension
		{Point{2, 1}, Point{1, 2}, false}, // incomparable
		{Point{2, 2}, Point{1, 1}, false}, // reversed
		{Point{0, 0, 5}, Point{1, 1, 5}, true},
	}
	for _, tc := range cases {
		if got := Dominates(tc.a, tc.b); got != tc.want {
			t.Errorf("Dominates(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// incomparable reports whether neither point dominates the other and the
// points are not identical.
func incomparable(a, b Point) bool {
	return !Equal(a, b) && !Dominates(a, b) && !Dominates(b, a)
}

func TestIncomparablePaperFigure2(t *testing.T) {
	// Paper §4.3: "the query point q is dominated by p1, and it is
	// incomparable with p3".
	q := Point{4, 4}
	p1 := Point{2, 1}
	p3 := Point{1, 9}
	if !Dominates(p1, q) {
		t.Error("p1 should dominate q")
	}
	if !incomparable(p3, q) {
		t.Error("p3 should be incomparable with q")
	}
}

func TestDominancePropertiesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randPoint := func(d int) Point {
		p := make(Point, d)
		for i := range p {
			p[i] = math.Floor(rng.Float64()*10) / 2 // coarse grid to force ties
		}
		return p
	}
	// Antisymmetry: a dominates b implies b does not dominate a.
	anti := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(6)
		a, b := randPoint(d), randPoint(d)
		if Dominates(a, b) && Dominates(b, a) {
			return false
		}
		return true
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
	// Transitivity: a dom b and b dom c implies a dom c.
	trans := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		a, b, c := randPoint(d), randPoint(d), randPoint(d)
		if Dominates(a, b) && Dominates(b, c) {
			return Dominates(a, c)
		}
		return true
	}
	if err := quick.Check(trans, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Exactly one of: equal, a dom b, b dom a, incomparable.
	partition := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		a, b := randPoint(d), randPoint(d)
		n := 0
		if Equal(a, b) {
			n++
		}
		if Dominates(a, b) {
			n++
		}
		if Dominates(b, a) {
			n++
		}
		if incomparable(a, b) {
			n++
		}
		return n == 1
	}
	if err := quick.Check(partition, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestScoreMonotoneUnderDominanceQuick(t *testing.T) {
	// If a dominates b then f(w, a) <= f(w, b) for every valid weight.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		a := make(Point, d)
		b := make(Point, d)
		for i := range a {
			a[i] = r.Float64() * 10
			b[i] = a[i] + r.Float64()*5 // b is dominated by a (or equal)
		}
		w := RandTestWeight(r, d)
		return Score(w, a) <= Score(w, b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// RandTestWeight builds a random valid weighting vector; shared with other
// package tests through export_test-style reuse inside this package only.
func RandTestWeight(r *rand.Rand, d int) Weight {
	w := make(Weight, d)
	sum := 0.0
	for i := range w {
		w[i] = -math.Log(1 - r.Float64())
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

func TestValidateWeight(t *testing.T) {
	if err := ValidateWeight(Weight{0.3, 0.7}); err != nil {
		t.Errorf("valid weight rejected: %v", err)
	}
	if err := ValidateWeight(Weight{0.3, 0.6}); err == nil {
		t.Error("sum != 1 accepted")
	}
	if err := ValidateWeight(Weight{-0.1, 1.1}); err == nil {
		t.Error("negative component accepted")
	}
	if err := ValidateWeight(Weight{}); err == nil {
		t.Error("empty weight accepted")
	}
	if err := ValidateWeight(Weight{math.NaN(), 1}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestValidatePoint(t *testing.T) {
	if err := ValidatePoint(Point{0, 1, 2}); err != nil {
		t.Errorf("valid point rejected: %v", err)
	}
	if err := ValidatePoint(Point{-1, 0}); err == nil {
		t.Error("negative point accepted")
	}
	if err := ValidatePoint(Point{}); err == nil {
		t.Error("empty point accepted")
	}
	if err := ValidatePoint(Point{math.Inf(1)}); err == nil {
		t.Error("infinite point accepted")
	}
}

func TestNormDistSub(t *testing.T) {
	a := Point{3, 4}
	if got := Norm(a); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Norm = %v, want 5", got)
	}
	b := Point{0, 0}
	if got := Dist(a, b); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Dist = %v, want 5", got)
	}
	d := Sub(a, b)
	if !Equal(d, a) {
		t.Errorf("Sub = %v, want %v", d, a)
	}
	// Penalty example from the paper (§4.2): q=(4,4), q'=(3,2.5):
	// ||q'-q||/||q|| = 0.318...
	q := Point{4, 4}
	qp := Point{3, 2.5}
	if got := Dist(q, qp) / Norm(q); !almostEqual(got, 0.3187, 5e-4) {
		t.Errorf("penalty(q') = %v, want ~0.318", got)
	}
	qpp := Point{2.5, 3.5}
	if got := Dist(q, qpp) / Norm(q); !almostEqual(got, 0.2795, 5e-4) {
		t.Errorf("penalty(q'') = %v, want ~0.279", got)
	}
}

func TestLexicographic(t *testing.T) {
	cases := []struct {
		a, b Point
		want int
	}{
		{Point{1, 2}, Point{1, 3}, -1},
		{Point{1, 3}, Point{1, 2}, 1},
		{Point{1, 2}, Point{1, 2}, 0},
		{Point{2, 0}, Point{1, 9}, 1},
	}
	for _, tc := range cases {
		if got := Lexicographic(tc.a, tc.b); got != tc.want {
			t.Errorf("Lexicographic(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Point{1, 2}
	c := Clone(p)
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone shares backing array")
	}
	w := Weight{0.5, 0.5}
	cw := CloneWeight(w)
	cw[0] = 0
	if w[0] != 0.5 {
		t.Error("CloneWeight shares backing array")
	}
}

func TestWeightDist(t *testing.T) {
	// Max simplex distance is between two vertices: sqrt(2).
	a := Weight{1, 0}
	b := Weight{0, 1}
	if got := WeightDist(a, b); !almostEqual(got, math.Sqrt2, 1e-12) {
		t.Errorf("WeightDist = %v, want sqrt(2)", got)
	}
}
