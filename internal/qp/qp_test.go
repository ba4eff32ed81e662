package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wqrtq/internal/mat"
)

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *mat.Dense {
	m := mat.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// distProblem builds min ||x - t||² = ½ xᵀ(2I)x + (-2t)ᵀx + const.
func distProblem(t []float64) Problem {
	n := len(t)
	h := mat.New(n, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		h.Set(i, i, 2)
		c[i] = -2 * t[i]
	}
	return Problem{H: h, C: c}
}

// boxRows appends 0 <= x <= ub constraints as G x <= h rows.
func boxRows(n int, ub []float64) (*mat.Dense, []float64) {
	g := mat.New(2*n, n)
	h := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		g.Set(i, i, 1)
		h[i] = ub[i]
		g.Set(n+i, i, -1)
		h[n+i] = 0
	}
	return g, h
}

func TestUnconstrainedMinimum(t *testing.T) {
	p := distProblem([]float64{3, -1, 2})
	x, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestBoxProjectionQuick(t *testing.T) {
	// min ||x - t||² subject to 0 <= x <= ub has solution clamp(t, 0, ub).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		tgt := make([]float64, n)
		ub := make([]float64, n)
		for i := range tgt {
			tgt[i] = r.Float64()*8 - 4
			ub[i] = r.Float64()*3 + 0.1
		}
		p := distProblem(tgt)
		p.G, p.Hv = boxRows(n, ub)
		x, err := Solve(p, Options{})
		if err != nil {
			return false
		}
		for i := range x {
			// Coordinate error scales like sqrt(duality gap) when a
			// constraint is weakly active, so allow ~2e-4 absolute.
			want := math.Max(0, math.Min(tgt[i], ub[i]))
			if math.Abs(x[i]-want) > 2e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMehrotraBoxProjectionQuick keeps its name from the predictor-corrector
// stepper it once selected; with one stepper left it checks the projection
// onto boxes lb <= x <= ub whose lower bound is negative, not zero.
func TestMehrotraBoxProjectionQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		tgt := make([]float64, n)
		lb := make([]float64, n)
		ub := make([]float64, n)
		for i := range tgt {
			tgt[i] = r.Float64()*8 - 4
			lb[i] = -r.Float64() * 3
			ub[i] = lb[i] + r.Float64()*3 + 0.1
		}
		p := distProblem(tgt)
		p.G, p.Hv = boxRows(n, ub)
		for i := range lb {
			p.Hv[n+i] = -lb[i]
		}
		x, err := Solve(p, Options{})
		if err != nil {
			return false
		}
		for i := range x {
			want := math.Max(lb[i], math.Min(tgt[i], ub[i]))
			if math.Abs(x[i]-want) > 2e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestHalfspaceKnown(t *testing.T) {
	// min (x1-2)² + (x2-2)² s.t. x1 + x2 <= 2 → projection onto the line:
	// (1, 1).
	p := distProblem([]float64{2, 2})
	p.G = fromRows([][]float64{{1, 1}})
	p.Hv = []float64{2}
	x, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-7 || math.Abs(x[1]-1) > 1e-7 {
		t.Errorf("x = %v, want (1, 1)", x)
	}
}

func TestInactiveConstraint(t *testing.T) {
	// Constraint far away: solution stays at the unconstrained optimum.
	p := distProblem([]float64{0.25, 0.25})
	p.G = fromRows([][]float64{{1, 1}})
	p.Hv = []float64{100}
	x, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.25) > 1e-7 || math.Abs(x[1]-0.25) > 1e-7 {
		t.Errorf("x = %v, want (0.25, 0.25)", x)
	}
}

func TestInfeasibleInequalities(t *testing.T) {
	// x <= -1 and x >= 2 simultaneously.
	p := distProblem([]float64{0})
	p.G = fromRows([][]float64{{1}, {-1}})
	p.Hv = []float64{-1, -2}
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

// optimalAgainstFeasibleSamples draws a random strictly convex QP around
// a known interior point from seed and reports whether Solve's optimum is
// feasible and scores no worse than any feasible sample, as convexity
// implies.
func optimalAgainstFeasibleSamples(seed int64) bool {
	obj := func(h *mat.Dense, c, x []float64) float64 {
		hx := h.MulVec(x)
		s := 0.0
		for i := range x {
			s += 0.5*x[i]*hx[i] + c[i]*x[i]
		}
		return s
	}
	r := rand.New(rand.NewSource(seed))
	n := 1 + r.Intn(5)
	m := 1 + r.Intn(6)
	// Random SPD H.
	b := mat.New(n, n)
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	h := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, dotVec(b.Row(i), b.Row(j)))
		}
		h.Set(i, i, h.At(i, i)+float64(n))
	}
	c := make([]float64, n)
	for i := range c {
		c[i] = r.NormFloat64()
	}
	// Constraints built around a known interior point x0.
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = r.NormFloat64()
	}
	g := mat.New(m, n)
	hv := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			g.Set(i, j, r.NormFloat64())
		}
		hv[i] = dotVec(g.Row(i), x0) + 0.5 + r.Float64()
	}
	x, err := Solve(Problem{H: h, C: c, G: g, Hv: hv}, Options{})
	if err != nil {
		return false
	}
	// Optimum must be feasible.
	gx := g.MulVec(x)
	for i := range gx {
		if gx[i] > hv[i]+1e-6 {
			return false
		}
	}
	fx := obj(h, c, x)
	// Sample feasible points near x0 and on segments toward x.
	for trial := 0; trial < 30; trial++ {
		y := make([]float64, n)
		for i := range y {
			y[i] = x0[i] + r.NormFloat64()*0.5
		}
		feasible := true
		gy := g.MulVec(y)
		for i := range gy {
			if gy[i] > hv[i] {
				feasible = false
				break
			}
		}
		if feasible && obj(h, c, y) < fx-1e-6 {
			return false
		}
	}
	return true
}

func TestOptimalityAgainstFeasibleSamplesQuick(t *testing.T) {
	if err := quick.Check(optimalAgainstFeasibleSamples, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestOptimalityAgainstFeasibleSamplesRegressions keeps the seeds the
// quick check once drew and Solve failed: n = 4, m = 1 problems whose one
// constraint the unconstrained minimizer violates, which the fixed-σ
// iteration reported infeasible although x0 is strictly interior.
func TestOptimalityAgainstFeasibleSamplesRegressions(t *testing.T) {
	for _, seed := range []int64{-1363535363490868885, 8994962149242606200} {
		if !optimalAgainstFeasibleSamples(seed) {
			t.Errorf("seed %d: no optimum, or one infeasible or worse than a feasible sample", seed)
		}
	}
}

func dotVec(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestDimensionValidation(t *testing.T) {
	p := Problem{H: mat.New(2, 3), C: []float64{1, 2}}
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("bad H accepted")
	}
	p = distProblem([]float64{1, 2})
	p.G = mat.New(1, 3)
	p.Hv = []float64{1}
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("bad G accepted")
	}
}

// TestPaperMQPGeometry solves Algorithm 1's quadratic program for the
// paper's running example (Kevin and Julia as why-not vectors, k = 3): the top-3rd
// points are p4 for Kevin's w and p7 for Julia's w (Figure 5(b)), giving
// constraints f(w, q') <= f(w, p_i) plus 0 <= q' <= q.
func TestPaperMQPGeometry(t *testing.T) {
	q := []float64{4, 4}
	kevin := []float64{0.1, 0.9}
	julia := []float64{0.9, 0.1}
	p4 := []float64{9, 3} // f(kevin, p4) = 3.6
	p7 := []float64{3, 7} // f(julia, p7) = 3.4

	p := distProblem(q)
	p.G = fromRows([][]float64{
		kevin,
		julia,
		{1, 0}, {0, 1}, // x <= q
		{-1, 0}, {0, -1}, // x >= 0
	})
	p.Hv = []float64{
		0.1*p4[0] + 0.9*p4[1],
		0.9*p7[0] + 0.1*p7[1],
		q[0], q[1],
		0, 0,
	}
	x, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Feasibility w.r.t. the two scoring constraints.
	if s := 0.1*x[0] + 0.9*x[1]; s > 3.6+1e-7 {
		t.Errorf("kevin constraint violated: %v", s)
	}
	if s := 0.9*x[0] + 0.1*x[1]; s > 3.4+1e-7 {
		t.Errorf("julia constraint violated: %v", s)
	}
	// The optimum must beat both of the paper's hand-picked candidates
	// q'=(3,2.5) (penalty 0.318) and q''=(2.5,3.5) (penalty 0.279).
	dist := math.Hypot(x[0]-4, x[1]-4)
	if dist > math.Hypot(2.5-4, 3.5-4)+1e-9 {
		t.Errorf("QP distance %v worse than hand-picked candidate", dist)
	}
}
