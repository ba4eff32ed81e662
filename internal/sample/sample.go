// Package sample implements the sampling machinery of §4.3 and §4.4:
// weighting vectors drawn from the hyperplanes that the incomparable points
// form with the query point (the sample space of MWK), and query points
// drawn from the box [q_min, q] (the sample space SP(q) of MQWK).
//
// For an incomparable point p, the hyperplane {w : w·(p-q) = 0} is the locus
// of weighting vectors under which p and q tie; crossing it changes q's rank
// by one. As proved in [14] (He and Lo) and used by Lemma 5, for a fixed
// target ranking the weighting vector closest to a why-not vector lies on
// one of these hyperplanes, so they constitute the entire sample space.
//
// The intersection of such a hyperplane with the standard weighting simplex
// is a (d-2)-polytope whose vertices lie on simplex edges. Samples are
// drawn as Dirichlet-weighted convex combinations of those vertices: every
// sample satisfies the hyperplane and simplex constraints exactly, and the
// whole polytope has positive sampling density (the distribution is not
// perfectly uniform over the polytope, which the paper does not require).
package sample

import (
	"errors"
	"math/rand"

	"wqrtq/internal/vec"
)

// HyperplaneVertices returns the vertices of {w : w >= 0, Σw = 1, c·w = 0}.
// The result is empty when the hyperplane misses the simplex (c strictly
// one-signed). Vertices are fresh slices.
func HyperplaneVertices(c []float64) []vec.Weight {
	d := len(c)
	var out []vec.Weight
	for i := 0; i < d; i++ {
		if c[i] == 0 {
			v := make(vec.Weight, d)
			v[i] = 1
			out = append(out, v)
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if (c[i] > 0 && c[j] < 0) || (c[i] < 0 && c[j] > 0) {
				t := c[j] / (c[j] - c[i])
				v := make(vec.Weight, d)
				v[i] = t
				v[j] = 1 - t
				out = append(out, v)
			}
		}
	}
	return out
}

// WeightSampler draws weighting vectors from the union of the hyperplanes
// formed by the incomparable points I and the query point q.
type WeightSampler struct {
	planes [][]float64    // c = p - q per usable incomparable point
	verts  [][]vec.Weight // vertices per plane
}

// ErrNoSampleSpace is returned when no hyperplane intersects the simplex
// (e.g. I is empty), so weight modification cannot help.
var ErrNoSampleSpace = errors.New("sample: no hyperplane intersects the weighting simplex")

// NewWeightSampler prepares the sample space for query point q and the
// incomparable points inc.
func NewWeightSampler(q vec.Point, inc []vec.Point) (*WeightSampler, error) {
	s := &WeightSampler{}
	for _, p := range inc {
		c := vec.Sub(p, q)
		vs := HyperplaneVertices(c)
		if len(vs) == 0 {
			continue
		}
		s.planes = append(s.planes, c)
		s.verts = append(s.verts, vs)
	}
	if len(s.planes) == 0 {
		return nil, ErrNoSampleSpace
	}
	return s, nil
}

// Sample draws one weighting vector: a hyperplane is chosen uniformly and a
// Dirichlet(1,...,1)-weighted convex combination of its vertices is
// returned.
func (s *WeightSampler) Sample(rng *rand.Rand) vec.Weight {
	idx := rng.Intn(len(s.planes))
	return combineVertices(s.verts[idx], rng)
}

// SampleN draws n weighting vectors.
func (s *WeightSampler) SampleN(rng *rand.Rand, n int) []vec.Weight {
	out := make([]vec.Weight, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

func combineVertices(vs []vec.Weight, rng *rand.Rand) vec.Weight {
	d := len(vs[0])
	if len(vs) == 1 {
		return vec.CloneWeight(vs[0])
	}
	// Dirichlet(1) weights via normalized exponentials.
	coef := make([]float64, len(vs))
	sum := 0.0
	for i := range coef {
		coef[i] = rng.ExpFloat64()
		sum += coef[i]
	}
	w := make(vec.Weight, d)
	for i, v := range vs {
		c := coef[i] / sum
		for j := range w {
			w[j] += c * v[j]
		}
	}
	return w
}

// LazyWeightSampler draws the exact same weighting-vector stream as a
// WeightSampler built over the same incomparable points — same rand.Rand
// consumption, same values — without materializing any hyperplane up front.
// Each draw picks an index, derives that one point's hyperplane c = p - q,
// and enumerates its simplex vertices on demand, so construction is O(1)
// instead of O(|I|·d²) with per-plane allocations. The skyband-routed
// refinement loops of internal/core build one of these per sample query
// point.
//
// Precondition: every accessible point must be strictly incomparable with q
// (some coordinate below q and some above, as FindIncom and Classify
// guarantee for their I sets). Such a hyperplane always intersects the
// weighting simplex, which is what makes the index stream identical to the
// eager sampler's: NewWeightSampler drops only planes that miss the
// simplex, and under the precondition there are none to drop. Sample panics
// if the precondition is violated.
type LazyWeightSampler struct {
	q  vec.Point
	n  int
	at func(int) vec.Point
}

// NewLazyWeightSampler prepares a lazy sample space over n incomparable
// points accessed through at. It returns ErrNoSampleSpace when n == 0,
// mirroring the eager constructor.
func NewLazyWeightSampler(q vec.Point, n int, at func(int) vec.Point) (*LazyWeightSampler, error) {
	if n == 0 {
		return nil, ErrNoSampleSpace
	}
	return &LazyWeightSampler{q: q, n: n, at: at}, nil
}

// DrawScratch holds the per-draw temporaries of SampleInto — the
// hyperplane coefficients, the vertex set and the Dirichlet coefficients —
// so a sampling loop's draws allocate nothing. The zero value is ready for
// use.
type DrawScratch struct {
	c    []float64
	vs   []vec.Weight
	vbuf []float64
	coef []float64
}

// SampleInto draws one weighting vector into dst (len d), bit-identically
// to (*WeightSampler).Sample over the same point sequence — same rand.Rand
// consumption, same float values — reusing sc's buffers for every
// intermediate. The blocked sampling loops of internal/core carve dst out of a per-block arena and
// copy out only the samples they keep, so a discarded draw leaves no
// garbage at all.
func (s *LazyWeightSampler) SampleInto(rng *rand.Rand, sc *DrawScratch, dst vec.Weight) {
	idx := rng.Intn(s.n)
	p := s.at(idx)
	d := len(s.q)
	if cap(sc.c) < d {
		sc.c = make([]float64, d)
	}
	c := sc.c[:d]
	for i := range c {
		c[i] = p[i] - s.q[i]
	}
	vs := hyperplaneVerticesInto(c, sc)
	if len(vs) == 0 {
		panic("sample: LazyWeightSampler over a point not incomparable with q")
	}
	w := dst[:d]
	if len(vs) == 1 {
		copy(w, vs[0])
		return
	}
	if cap(sc.coef) < len(vs) {
		sc.coef = make([]float64, len(vs))
	}
	coef := sc.coef[:len(vs)]
	sum := 0.0
	for i := range coef {
		coef[i] = rng.ExpFloat64()
		sum += coef[i]
	}
	clear(w)
	for i, v := range vs {
		cf := coef[i] / sum
		for j := range w {
			w[j] += cf * v[j]
		}
	}
}

// hyperplaneVerticesInto is HyperplaneVertices with the vertex slices carved
// out of sc's backing buffer, in the same order and with the same values.
func hyperplaneVerticesInto(c []float64, sc *DrawScratch) []vec.Weight {
	d := len(c)
	// At most d axis vertices plus d(d-1)/2 edge vertices.
	maxV := d + d*(d-1)/2
	if cap(sc.vbuf) < maxV*d {
		sc.vbuf = make([]float64, maxV*d)
	}
	if cap(sc.vs) < maxV {
		sc.vs = make([]vec.Weight, maxV)
	}
	buf := sc.vbuf[:0]
	out := sc.vs[:0]
	grab := func() vec.Weight {
		start := len(buf)
		buf = buf[:start+d]
		v := vec.Weight(buf[start : start+d])
		for i := range v {
			v[i] = 0
		}
		return v
	}
	for i := 0; i < d; i++ {
		if c[i] == 0 {
			v := grab()
			v[i] = 1
			out = append(out, v)
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if (c[i] > 0 && c[j] < 0) || (c[i] < 0 && c[j] > 0) {
				t := c[j] / (c[j] - c[i])
				v := grab()
				v[i] = t
				v[j] = 1 - t
				out = append(out, v)
			}
		}
	}
	sc.vbuf = buf
	sc.vs = out
	return out
}

// RandSimplex returns a uniform random point on the standard d-simplex.
func RandSimplex(rng *rand.Rand, d int) vec.Weight {
	w := make(vec.Weight, d)
	sum := 0.0
	for i := range w {
		w[i] = rng.ExpFloat64()
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Box draws n points uniformly from the axis-aligned box [lo, hi]; this is
// MQWK's query-point sample space SP(q) with lo = q_min, hi = q (§4.4,
// Figure 6).
func Box(rng *rand.Rand, lo, hi vec.Point, n int) []vec.Point {
	out := make([]vec.Point, n)
	for i := range out {
		p := make(vec.Point, len(lo))
		for j := range p {
			p[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		out[i] = p
	}
	return out
}
