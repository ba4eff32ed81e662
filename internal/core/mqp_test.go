package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"wqrtq/internal/mat"
	"wqrtq/internal/qp"
	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// Shapes of a projection instance (bits of FuzzMQPProjection's shape byte).
const (
	shapeTree       = 1 << iota // scores are k-th scores of a random dataset
	shapeSparseW                // why-not vectors with zero components
	shapeZeroQ                  // q with zero coordinates
	shapeRepeatW                // Wm[1] repeats Wm[0]
	shapeCoarseGrid             // coordinates on {0, 1, 2, 3}: ties and zero scores
)

// projInstance is one safe-region projection: q, Wm and the k-th scores s.
// Tree-backed instances also carry the dataset and k, so the refined point
// can be verified against the index.
type projInstance struct {
	q  vec.Point
	wm []vec.Weight
	s  []float64
	tr *rtree.Tree
	k  int
}

func drawCoord(r *rand.Rand, shape int) float64 {
	if shape&shapeCoarseGrid != 0 {
		return float64(r.Intn(4))
	}
	return r.Float64() * 10
}

func drawProjInstance(seed int64, d, m, shape int) projInstance {
	r := rand.New(rand.NewSource(seed))
	in := projInstance{q: make(vec.Point, d), wm: make([]vec.Weight, m), s: make([]float64, m)}
	for j := range in.q {
		in.q[j] = drawCoord(r, shape)
		if shape&shapeZeroQ != 0 && r.Intn(3) == 0 {
			in.q[j] = 0
		}
	}
	for i := range in.wm {
		w := make(vec.Weight, d)
		sum := 0.0
		for j := range w {
			if shape&shapeSparseW == 0 || r.Intn(2) == 0 {
				w[j] = r.Float64() + 1e-3
			}
			sum += w[j]
		}
		if sum == 0 {
			w[r.Intn(d)], sum = 1, 1
		}
		for j := range w {
			w[j] /= sum
		}
		in.wm[i] = w
	}
	if shape&shapeRepeatW != 0 && m > 1 {
		in.wm[1] = vec.CloneWeight(in.wm[0])
	}
	if shape&shapeTree == 0 {
		for i, w := range in.wm {
			u := 1.2 * r.Float64()
			if shape&shapeCoarseGrid != 0 && r.Intn(4) == 0 {
				u = 0
			}
			in.s[i] = vec.Score(w, in.q) * u
		}
		if shape&shapeRepeatW != 0 && m > 1 {
			in.s[1] = in.s[0]
		}
		return in
	}
	pts := make([]vec.Point, 20+r.Intn(200))
	for i := range pts {
		pts[i] = make(vec.Point, d)
		for j := range pts[i] {
			pts[i][j] = drawCoord(r, shape)
		}
	}
	in.tr = rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
	in.k = 1 + r.Intn(10)
	return in
}

// ipmProjection is the test oracle: the projection solved as a QP by the
// interior-point method, with the dimensions q pins at 0 eliminated,
// clamped into [0, q] and snapped like the product's answer. ok is false
// when the interior-point method gives up.
func ipmProjection(q vec.Point, wm []vec.Weight, s []float64) (x vec.Point, ok bool) {
	var free []int
	for j, v := range q {
		if v > 0 {
			free = append(free, j)
		}
	}
	x = make(vec.Point, len(q))
	nf := len(free)
	if nf == 0 {
		return x, true
	}
	h := mat.New(nf, nf)
	c := make([]float64, nf)
	g := mat.New(len(wm)+2*nf, nf)
	hv := make([]float64, len(wm)+2*nf)
	for a, j := range free {
		h.Set(a, a, 2)
		c[a] = -2 * q[j]
		g.Set(len(wm)+a, a, 1)
		hv[len(wm)+a] = q[j]
		g.Set(len(wm)+nf+a, a, -1)
	}
	for i, w := range wm {
		for a, j := range free {
			g.Set(i, a, w[j])
		}
		hv[i] = s[i]
	}
	sol, err := qp.Solve(qp.Problem{H: h, C: c, G: g, Hv: hv}, qp.Options{})
	if err != nil {
		return nil, false
	}
	for a, j := range free {
		x[j] = math.Min(math.Max(sol[a], 0), q[j])
	}
	snapToSafeRegion(x, wm, s)
	return x, true
}

// checkProjection holds x and λ to the projection's optimality conditions:
// x ≥ 0 and every wᵢ·x ≤ sᵢ in vec.Score's arithmetic with no epsilon;
// λ ≥ 0; λᵢ > 0 only where wᵢ·x = sᵢ; and x = max(0, q − Σλᵢwᵢ), the last
// two within rounding.
func checkProjection(t *testing.T, q vec.Point, wm []vec.Weight, s []float64, x vec.Point, lambda []float64) {
	t.Helper()
	scale := vec.Norm(q)
	const rel = 1e-9
	for i, w := range wm {
		f := vec.Score(w, x)
		if f > s[i] {
			t.Fatalf("constraint %d violated: w·x = %v > s = %v (q=%v wm=%v s=%v)", i, f, s[i], q, wm, s)
		}
		if lambda[i] < 0 {
			t.Fatalf("λ[%d] = %v < 0", i, lambda[i])
		}
		if slack := lambda[i] * (s[i] - f); slack > rel*scale*scale {
			t.Fatalf("complementary slackness: λ[%d]·(s − w·x) = %v (λ=%v x=%v q=%v wm=%v s=%v)", i, slack, lambda, x, q, wm, s)
		}
	}
	for j := range x {
		if x[j] < 0 || x[j] > q[j] {
			t.Fatalf("x[%d] = %v outside [0, q[%d] = %v]", j, x[j], j, q[j])
		}
		want := math.Max(0, q[j]-dotColumn(wm, lambda, j))
		if math.Abs(x[j]-want) > rel*scale {
			t.Fatalf("stationarity at %d: x = %v, max(0, q − Σλw) = %v (λ=%v q=%v wm=%v s=%v)", j, x[j], want, lambda, q, wm, s)
		}
	}
}

// FuzzMQPProjection holds the exact safe-region projection to its KKT
// conditions and to the interior-point oracle over d in [2, 16] and
// |Wm| in [1, 4]: the refined point must be feasible under vec.Score with no
// epsilon, the multipliers must certify it, its distance to q must not
// exceed the snapped interior-point answer's by more than 1e-12 relative,
// and on tree-backed inputs MQP's answer must pass VerifyRefinement.
func FuzzMQPProjection(f *testing.F) {
	//            seed      d-2       |Wm|-1    shape
	f.Add(int64(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(shapeTree))
	f.Add(int64(3), uint8(4), uint8(3), uint8(shapeSparseW|shapeZeroQ))
	f.Add(int64(4), uint8(11), uint8(2), uint8(shapeTree|shapeSparseW))
	f.Add(int64(5), uint8(14), uint8(3), uint8(shapeRepeatW))
	f.Add(int64(6), uint8(2), uint8(3), uint8(shapeTree|shapeCoarseGrid|shapeSparseW))
	f.Add(int64(7), uint8(3), uint8(2), uint8(shapeCoarseGrid|shapeSparseW|shapeZeroQ))
	f.Add(int64(8), uint8(0), uint8(1), uint8(shapeTree|shapeCoarseGrid|shapeRepeatW))
	f.Fuzz(func(t *testing.T, seed int64, dRaw, mRaw, shapeRaw uint8) {
		d, m, shape := 2+int(dRaw%15), 1+int(mRaw%4), int(shapeRaw%32)
		in := drawProjInstance(seed, d, m, shape)
		if in.tr != nil {
			res, err := MQP(context.Background(), in.tr, nil, in.q, in.k, in.wm, DefaultPenaltyModel())
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyRefinement(in.tr, res.RefinedQ, in.k, in.wm) {
				t.Fatalf("MQP answer %v fails verification (q=%v k=%d wm=%v)", res.RefinedQ, in.q, in.k, in.wm)
			}
			for i, r := range res.KthPoints {
				in.s[i] = r.Score
			}
		}
		x, lambda, err := projectSafeRegion(in.q, in.wm, in.s)
		if err != nil {
			t.Fatalf("%v (q=%v wm=%v s=%v)", err, in.q, in.wm, in.s)
		}
		checkProjection(t, in.q, in.wm, in.s, x, lambda)
		if ipm, ok := ipmProjection(in.q, in.wm, in.s); ok {
			if got, ref := vec.Dist(x, in.q), vec.Dist(ipm, in.q); got > ref*(1+1e-12) {
				t.Fatalf("‖q′ − q‖ = %v exceeds the interior-point answer's %v (q=%v wm=%v s=%v)", got, ref, in.q, in.wm, in.s)
			}
		}
	})
}

// kktEnumeration finds the projection of q onto {x ≥ 0 : wᵢ·x ≤ sᵢ} by
// brute force: for every set A of rows and Z of coordinates it solves the
// Gram system for the point on A's hyperplanes with x_Z = 0, and returns the
// first point that satisfies every KKT condition. The program is strictly
// convex, so that point is the optimum.
func kktEnumeration(q vec.Point, wm []vec.Weight, s []float64) (vec.Point, bool) {
	d, m := len(q), len(wm)
	const eps = 1e-9
	for rowSet := 0; rowSet < 1<<m; rowSet++ {
		for zeroSet := 0; zeroSet < 1<<d; zeroSet++ {
			var act []int
			for i := 0; i < m; i++ {
				if rowSet&(1<<i) != 0 {
					act = append(act, i)
				}
			}
			inZ := func(j int) bool { return zeroSet&(1<<j) != 0 }
			lam := make([]float64, m)
			if len(act) > 0 {
				g := mat.New(len(act), len(act))
				rhs := make([]float64, len(act))
				for a, i := range act {
					rhs[a] = -s[i]
					for j := 0; j < d; j++ {
						if inZ(j) {
							continue
						}
						rhs[a] += wm[i][j] * q[j]
						for b, i2 := range act {
							g.Set(a, b, g.At(a, b)+wm[i][j]*wm[i2][j])
						}
					}
				}
				sol, err := mat.SolveSPD(g, rhs)
				if err != nil {
					continue
				}
				for a, i := range act {
					lam[i] = sol[a]
				}
			}
			x := make(vec.Point, d)
			ok := true
			for i := range lam {
				ok = ok && lam[i] >= -eps
			}
			for j := 0; j < d && ok; j++ {
				v := q[j] - dotColumn(wm, lam, j)
				if inZ(j) {
					ok = v <= eps // μⱼ = Σλw − qⱼ ≥ 0
				} else {
					x[j] = v
					ok = v >= -eps
				}
			}
			for i, w := range wm {
				ok = ok && vec.Score(w, x) <= s[i]+eps
			}
			if ok {
				return x, true
			}
		}
	}
	return nil, false
}

func TestMQPProjectionMatchesKKTEnumeration(t *testing.T) {
	for trial := 0; trial < 400; trial++ {
		d, m := 2+trial%4, 1+(trial/4)%4
		in := drawProjInstance(int64(trial), d, m, trial%8&^shapeTree)
		want, ok := kktEnumeration(in.q, in.wm, in.s)
		if !ok {
			t.Fatalf("trial %d: no KKT point found (q=%v wm=%v s=%v)", trial, in.q, in.wm, in.s)
		}
		got, lambda, err := projectSafeRegion(in.q, in.wm, in.s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkProjection(t, in.q, in.wm, in.s, got, lambda)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-9*(1+vec.Norm(in.q)) {
				t.Fatalf("trial %d: got %v, KKT enumeration %v (q=%v wm=%v s=%v)", trial, got, want, in.q, in.wm, in.s)
			}
		}
	}
}

// TestSnapToSafeRegionRepeats pins an instance where the exact projection
// rounds past its hyperplane under vec.Score and one scaling by the largest
// float below s/f still leaves the score above s: the snap must scale again.
func TestSnapToSafeRegionRepeats(t *testing.T) {
	q := vec.Point{7.159545700162927, 9.542332149639783}
	w := vec.Weight{0.4257893688344899, 0.57421063116551}
	s := 1.696339005284911
	step := walkBreakpoints(q, w, s)
	exact := vec.Point{q[0] - step*w[0], q[1] - step*w[1]}
	f := vec.Score(w, exact)
	if f <= s {
		t.Fatalf("exact solution scores %v <= s = %v: the instance no longer rounds past s", f, s)
	}
	once := vec.Clone(exact)
	r := math.Nextafter(s/f, 0)
	once[0] *= r
	once[1] *= r
	if vec.Score(w, once) <= s {
		t.Fatalf("one scaling reaches the region: the instance no longer needs a second")
	}
	x, lambda, err := projectSafeRegion(q, []vec.Weight{w}, []float64{s})
	if err != nil {
		t.Fatal(err)
	}
	checkProjection(t, q, []vec.Weight{w}, []float64{s}, x, lambda)
	for j := range x {
		if math.Abs(x[j]-exact[j]) > 1e-12*vec.Norm(q) {
			t.Errorf("snap moved x[%d] from %v to %v", j, exact[j], x[j])
		}
	}
}
