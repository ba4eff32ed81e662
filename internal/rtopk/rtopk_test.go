package rtopk

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

func paperPoints() []vec.Point {
	return []vec.Point{
		{2, 1}, {6, 3}, {1, 9}, {9, 3}, {7, 5}, {5, 8}, {3, 7},
	}
}

func paperWeights() []vec.Weight {
	return []vec.Weight{
		{0.9, 0.1}, // w1 Julia
		{0.5, 0.5}, // w2 Tony
		{0.3, 0.7}, // w3 Anna
		{0.1, 0.9}, // w4 Kevin
	}
}

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

func TestBichromaticPaperExample(t *testing.T) {
	// §1/§3: BRTOP3(q) = {w2 (Tony), w3 (Anna)}; Kevin and Julia are missing.
	tr := rtree.Bulk(paperPoints(), nil, rtree.Options{PageSize: 128})
	q := vec.Point{4, 4}
	got, stats, _ := BichromaticCtx(context.Background(), tr, paperWeights(), q, 3)
	want := []int{1, 2}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("BRTOP3 = %v, want %v", got, want)
	}
	if stats.Evaluated+stats.Pruned != 4 {
		t.Errorf("stats %+v do not cover all 4 vectors", stats)
	}
}

func TestBichromaticAgainstNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		d := 2 + r.Intn(3)
		pts := randPoints(r, n, d)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d)[0]
		k := 1 + r.Intn(10)
		m := 1 + r.Intn(40)
		W := make([]vec.Weight, m)
		for i := range W {
			W[i] = randWeight(r, d)
		}
		got, _, _ := BichromaticCtx(context.Background(), tr, W, q, k)
		want := BichromaticNaive(pts, W, q, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBichromaticPruningHappens(t *testing.T) {
	// Many similar vectors under which q ranks poorly: the threshold buffer
	// should prune most evaluations.
	r := rand.New(rand.NewSource(12))
	pts := randPoints(r, 5000, 2)
	tr := rtree.Bulk(pts, nil)
	q := vec.Point{9.5, 9.5} // dominated by nearly everything
	W := make([]vec.Weight, 200)
	for i := range W {
		lam := 0.3 + 0.4*float64(i)/200
		W[i] = vec.Weight{lam, 1 - lam}
	}
	got, stats, _ := BichromaticCtx(context.Background(), tr, W, q, 10)
	if len(got) != 0 {
		t.Fatalf("expected empty result, got %v", got)
	}
	if stats.Pruned == 0 {
		t.Error("expected buffer pruning to trigger")
	}
	if stats.Evaluated+stats.Pruned != len(W) {
		t.Errorf("stats %+v do not cover all vectors", stats)
	}
}

func TestMonochromatic2DPaperExample(t *testing.T) {
	// Figure 2(b): MRTOP3(q) is the segment between B(1/6, 5/6) and
	// C(3/4, 1/4), i.e. λ ∈ [1/6, 3/4] with w = (λ, 1-λ).
	got := Monochromatic2D(paperPoints(), vec.Point{4, 4}, 3)
	if len(got) != 1 {
		t.Fatalf("intervals = %v, want one interval", got)
	}
	if math.Abs(got[0].Lo-1.0/6) > 1e-9 || math.Abs(got[0].Hi-3.0/4) > 1e-9 {
		t.Errorf("interval = [%v, %v], want [1/6, 3/4]", got[0].Lo, got[0].Hi)
	}
	// The paper's example why-not vectors (1/10, 9/10) and (4/5, 1/5) fall
	// outside the result.
	for _, lam := range []float64{0.1, 0.8} {
		if got[0].Lo <= lam && lam <= got[0].Hi {
			t.Errorf("λ=%v unexpectedly inside MRTOP3", lam)
		}
	}
}

func TestMonochromatic2DAgainstGridQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		pts := randPoints(r, n, 2)
		q := randPoints(r, 1, 2)[0]
		k := 1 + r.Intn(8)
		ivs := Monochromatic2D(pts, q, k)
		inside := func(lam float64) bool {
			for _, iv := range ivs {
				if iv.Lo <= lam && lam <= iv.Hi {
					return true
				}
			}
			return false
		}
		// Dense grid evaluation must agree except within eps of breakpoints.
		const steps = 400
		for s := 0; s <= steps; s++ {
			lam := float64(s) / steps
			want := MonoRank(pts, q, lam) <= k
			got := inside(lam)
			if got != want {
				// Tolerate grid points that sit essentially on an interval
				// boundary.
				nearEdge := false
				for _, iv := range ivs {
					if math.Abs(lam-iv.Lo) < 1e-9 || math.Abs(lam-iv.Hi) < 1e-9 {
						nearEdge = true
					}
				}
				if !nearEdge {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMonochromatic2DWholeRange(t *testing.T) {
	// q dominates everything: the whole weighting space qualifies.
	pts := []vec.Point{{5, 5}, {6, 7}, {8, 2}}
	got := Monochromatic2D(pts, vec.Point{1, 1}, 1)
	if len(got) != 1 || got[0].Lo != 0 || got[0].Hi != 1 {
		t.Errorf("intervals = %v, want [[0,1]]", got)
	}
	// q dominated by k points everywhere: empty result.
	got = Monochromatic2D(pts, vec.Point{9, 9}, 1)
	if len(got) != 0 {
		t.Errorf("intervals = %v, want empty", got)
	}
}

func TestMonochromatic2DTieHandling(t *testing.T) {
	// A point identical to q ties everywhere and never excludes q.
	pts := []vec.Point{{4, 4}, {1, 1}}
	got := Monochromatic2D(pts, vec.Point{4, 4}, 2)
	if len(got) != 1 || got[0].Lo != 0 || got[0].Hi != 1 {
		t.Errorf("intervals = %v, want [[0,1]]", got)
	}
	// With k=1 only the dominating point counts; q still ties itself.
	got = Monochromatic2D(pts, vec.Point{4, 4}, 1)
	if len(got) != 0 {
		t.Errorf("intervals = %v, want empty (p=(1,1) always beats q)", got)
	}
}

func TestMonochromatic2DRejectsBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-2D input")
		}
	}()
	Monochromatic2D([]vec.Point{{1, 2, 3}}, vec.Point{1, 2, 3}, 1)
}

func TestMonochromaticSampleMatches2DExact(t *testing.T) {
	// The Monte Carlo estimate of the result's measure must match the total
	// interval length of the exact 2-D algorithm.
	pts := paperPoints()
	tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 128})
	q := vec.Point{4, 4}
	exact := Monochromatic2D(pts, q, 3)
	want := 0.0
	for _, iv := range exact {
		want += iv.Hi - iv.Lo
	}
	rng := rand.New(rand.NewSource(5))
	witnesses, frac := MonochromaticSample(tr, q, 3, 4000, rng)
	if math.Abs(frac-want) > 0.03 {
		t.Errorf("sampled fraction = %v, exact measure = %v", frac, want)
	}
	// Every witness must genuinely contain q in its top-3.
	for _, w := range witnesses[:10] {
		fq := vec.Score(w, q)
		cnt := 0
		for _, p := range pts {
			if vec.Score(w, p) < fq {
				cnt++
			}
		}
		if cnt > 2 {
			t.Fatalf("witness %v has %d better points", w, cnt)
		}
	}
}

func TestMonochromaticSampleHigherDim(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	pts := randPoints(r, 500, 4)
	tr := rtree.Bulk(pts, nil)
	// A very good q: large measure. A very bad q: zero measure.
	good := vec.Point{0.01, 0.01, 0.01, 0.01}
	bad := vec.Point{9.9, 9.9, 9.9, 9.9}
	_, fGood := MonochromaticSample(tr, good, 5, 500, r)
	_, fBad := MonochromaticSample(tr, bad, 5, 500, r)
	if fGood < 0.9 {
		t.Errorf("dominating q has fraction %v, want ~1", fGood)
	}
	if fBad > 0.01 {
		t.Errorf("dominated q has fraction %v, want ~0", fBad)
	}
	if _, f := MonochromaticSample(tr, good, 5, 0, r); f != 0 {
		t.Errorf("samples=0 returned fraction %v", f)
	}
}
