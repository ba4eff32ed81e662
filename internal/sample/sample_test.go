package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wqrtq/internal/vec"
)

// onPlane is the absolute hyperplane residual |c·w| of a sample.
func onPlane(c []float64, w vec.Weight) float64 {
	s := 0.0
	for i := range c {
		s += c[i] * w[i]
	}
	return math.Abs(s)
}

func TestHyperplaneVertices2D(t *testing.T) {
	// c = p - q with p=(9,3), q=(4,4): c=(5,-1). The unique simplex point
	// satisfies 5λ - (1-λ) = 0 → λ = 1/6.
	vs := HyperplaneVertices([]float64{5, -1})
	if len(vs) != 1 {
		t.Fatalf("vertices = %v, want exactly one", vs)
	}
	if math.Abs(vs[0][0]-1.0/6) > 1e-12 || math.Abs(vs[0][1]-5.0/6) > 1e-12 {
		t.Errorf("vertex = %v, want (1/6, 5/6)", vs[0])
	}
}

func TestHyperplaneVerticesMissesSimplex(t *testing.T) {
	if vs := HyperplaneVertices([]float64{1, 2, 3}); len(vs) != 0 {
		t.Errorf("one-signed c should miss the simplex, got %v", vs)
	}
	if vs := HyperplaneVertices([]float64{-1, -2}); len(vs) != 0 {
		t.Errorf("negative c should miss the simplex, got %v", vs)
	}
}

func TestHyperplaneVerticesZeroComponent(t *testing.T) {
	// c = (0, 1, -1): vertices are e1 and the midpoint of e2-e3 edge.
	vs := HyperplaneVertices([]float64{0, 1, -1})
	if len(vs) != 2 {
		t.Fatalf("got %d vertices, want 2", len(vs))
	}
	for _, v := range vs {
		if err := vec.ValidateWeight(v); err != nil {
			t.Errorf("vertex %v invalid: %v", v, err)
		}
		if r := onPlane([]float64{0, 1, -1}, v); r > 1e-12 {
			t.Errorf("vertex %v off plane by %v", v, r)
		}
	}
}

func TestHyperplaneVerticesPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(6)
		c := make([]float64, d)
		for i := range c {
			c[i] = r.NormFloat64()
		}
		for _, v := range HyperplaneVertices(c) {
			if vec.ValidateWeight(v) != nil {
				return false
			}
			if onPlane(c, v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWeightSamplerSamplesSatisfyConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := vec.Point{4, 4, 4}
	inc := []vec.Point{{9, 3, 2}, {1, 9, 5}, {3, 7, 4}}
	s, err := NewWeightSampler(q, inc)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.planes) != 3 {
		t.Fatalf("%d usable planes, want 3", len(s.planes))
	}
	for i := 0; i < 500; i++ {
		w := s.Sample(rng)
		if err := vec.ValidateWeight(w); err != nil {
			t.Fatalf("sample %d invalid: %v (%v)", i, err, w)
		}
		// The sample must lie on at least one of the hyperplanes.
		on := false
		for _, p := range inc {
			if onPlane(vec.Sub(p, q), w) < 1e-9 {
				on = true
				break
			}
		}
		if !on {
			t.Fatalf("sample %d = %v on no hyperplane", i, w)
		}
	}
}

func TestWeightSamplerNoSampleSpace(t *testing.T) {
	// Incomparable list empty, or every "incomparable" point dominated
	// (cannot happen from FindIncom, but the sampler must still guard).
	if _, err := NewWeightSampler(vec.Point{1, 1}, nil); err != ErrNoSampleSpace {
		t.Errorf("err = %v, want ErrNoSampleSpace", err)
	}
	if _, err := NewWeightSampler(vec.Point{1, 1}, []vec.Point{{2, 2}}); err != ErrNoSampleSpace {
		t.Errorf("dominated point: err = %v, want ErrNoSampleSpace", err)
	}
}

func TestWeightSampler2DDeterministicPoint(t *testing.T) {
	// In 2-D each hyperplane meets the simplex in exactly one point, so all
	// samples from a single-plane sampler coincide.
	rng := rand.New(rand.NewSource(3))
	q := vec.Point{4, 4}
	s, err := NewWeightSampler(q, []vec.Point{{9, 3}})
	if err != nil {
		t.Fatal(err)
	}
	first := s.Sample(rng)
	for i := 0; i < 20; i++ {
		w := s.Sample(rng)
		if vec.WeightDist(first, w) > 1e-12 {
			t.Fatalf("2-D samples differ: %v vs %v", first, w)
		}
	}
	if math.Abs(first[0]-1.0/6) > 1e-12 {
		t.Errorf("sample = %v, want λ = 1/6", first)
	}
}

func TestSampleNCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, err := NewWeightSampler(vec.Point{4, 4}, []vec.Point{{9, 3}, {1, 9}})
	if err != nil {
		t.Fatal(err)
	}
	ws := s.SampleN(rng, 64)
	if len(ws) != 64 {
		t.Fatalf("SampleN returned %d", len(ws))
	}
}

func TestRandSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		d := 2 + rng.Intn(8)
		w := RandSimplex(rng, d)
		if err := vec.ValidateWeight(w); err != nil {
			t.Fatalf("RandSimplex invalid: %v", err)
		}
	}
}

func TestBoxSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	lo := vec.Point{1, 2, 3}
	hi := vec.Point{2, 5, 3} // note zero-width last dimension
	pts := Box(rng, lo, hi, 300)
	if len(pts) != 300 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		for j := range p {
			if p[j] < lo[j] || p[j] > hi[j] {
				t.Fatalf("point %v outside box", p)
			}
		}
		if p[2] != 3 {
			t.Fatalf("zero-width dimension sampled off-value: %v", p)
		}
	}
}

func TestDirichletCombinationCoversPolytope(t *testing.T) {
	// In 3-D a mixed-sign plane has >= 2 vertices; samples should not all
	// collapse onto a vertex.
	rng := rand.New(rand.NewSource(11))
	s, err := NewWeightSampler(vec.Point{4, 4, 4}, []vec.Point{{9, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[[3]int64]bool{}
	for i := 0; i < 100; i++ {
		w := s.Sample(rng)
		key := [3]int64{int64(w[0] * 1e6), int64(w[1] * 1e6), int64(w[2] * 1e6)}
		distinct[key] = true
	}
	if len(distinct) < 50 {
		t.Errorf("only %d distinct samples out of 100; sampler looks degenerate", len(distinct))
	}
}

// --- Lazy sampler: degenerate spaces and the scratch-draw variant ----------

// lazyOver builds a LazyWeightSampler over the same incomparable sequence an
// eager sampler would see.
func lazyOver(q vec.Point, inc []vec.Point) (*LazyWeightSampler, error) {
	return NewLazyWeightSampler(q, len(inc), func(i int) vec.Point { return inc[i] })
}

// drawBoth draws n samples from an eager and a lazy sampler over the same
// space with identically seeded rngs and requires bit-identical streams.
func drawBoth(t *testing.T, label string, q vec.Point, inc []vec.Point, n int) {
	t.Helper()
	eager, errE := NewWeightSampler(q, inc)
	lazy, errL := lazyOver(q, inc)
	if errE != nil || errL != nil {
		t.Fatalf("%s: constructors failed: eager=%v lazy=%v", label, errE, errL)
	}
	rngE := rand.New(rand.NewSource(42))
	rngL := rand.New(rand.NewSource(42))
	var sc DrawScratch
	for i := 0; i < n; i++ {
		we := eager.Sample(rngE)
		wl := make(vec.Weight, len(q))
		lazy.SampleInto(rngL, &sc, wl)
		if !vec.Equal(vec.Point(we), vec.Point(wl)) {
			t.Fatalf("%s: draw %d diverged: eager %v, lazy %v", label, i, we, wl)
		}
	}
}

// TestLazySamplerEmptyUniverse pins the empty candidate universe: both
// constructors must refuse with ErrNoSampleSpace, so the refinement loops
// fall back to the k-only baseline identically on both paths.
func TestLazySamplerEmptyUniverse(t *testing.T) {
	if _, err := NewWeightSampler(vec.Point{1, 1}, nil); err != ErrNoSampleSpace {
		t.Errorf("eager: err = %v, want ErrNoSampleSpace", err)
	}
	if _, err := lazyOver(vec.Point{1, 1}, nil); err != ErrNoSampleSpace {
		t.Errorf("lazy: err = %v, want ErrNoSampleSpace", err)
	}
}

// TestLazySampler1D pins d=1: no point is strictly incomparable with q in
// one dimension, so the only admissible 1-D "hyperplane" is the degenerate
// c = 0 of a point equal to q, whose single vertex (1) both samplers return
// with identical rng consumption; a genuinely one-signed c violates the
// incomparability precondition and must panic on the lazy side, mirroring
// the eager constructor's refusal.
func TestLazySampler1D(t *testing.T) {
	q := vec.Point{3}
	drawBoth(t, "d=1 equal point", q, []vec.Point{{3}}, 16)

	if _, err := NewWeightSampler(q, []vec.Point{{5}}); err != ErrNoSampleSpace {
		t.Fatalf("eager over one-signed 1-D plane: err = %v, want ErrNoSampleSpace", err)
	}
	lazy, err := lazyOver(q, []vec.Point{{5}})
	if err != nil {
		t.Fatalf("lazy constructor is O(1) and cannot pre-check planes: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lazy draw over a non-incomparable point must panic")
		}
	}()
	var sc DrawScratch
	lazy.SampleInto(rand.New(rand.NewSource(1)), &sc, make(vec.Weight, len(q)))
}

// TestLazySamplerDuplicateHyperplanes pins duplicate planes: repeated
// incomparable points produce coincident hyperplanes, and the index-uniform
// draw must keep the duplicated plane's doubled mass with an identical
// stream on both samplers.
func TestLazySamplerDuplicateHyperplanes(t *testing.T) {
	q := vec.Point{4, 4, 4}
	inc := []vec.Point{{9, 3, 2}, {9, 3, 2}, {9, 3, 2}, {1, 9, 5}}
	drawBoth(t, "duplicate planes", q, inc, 200)
}

// TestLazySamplerMoreSamplesThanPlanes pins sampleSize > universe: drawing
// far more samples than there are hyperplanes revisits planes, and the
// streams must stay bit-identical throughout (the lazy sampler re-derives
// the plane on every visit; the eager one reuses its materialization).
func TestLazySamplerMoreSamplesThanPlanes(t *testing.T) {
	q := vec.Point{4, 4}
	inc := []vec.Point{{9, 3}, {1, 9}}
	drawBoth(t, "samples > universe", q, inc, 500)
}

// TestSampleScratchAllocs guards the scratch draw: after warm-up a draw
// into a caller-owned weight allocates nothing.
func TestSampleScratchAllocs(t *testing.T) {
	q := vec.Point{4, 4, 4}
	inc := []vec.Point{{9, 3, 2}, {1, 9, 5}, {3, 7, 4}}
	lazy, err := lazyOver(q, inc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var sc DrawScratch
	w := make(vec.Weight, len(q))
	lazy.SampleInto(rng, &sc, w) // warm the scratch buffers
	allocs := testing.AllocsPerRun(200, func() {
		lazy.SampleInto(rng, &sc, w)
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocates %.1f objects per draw, want 0", allocs)
	}
}
