package rtopk

import (
	"math/rand"

	"wqrtq/internal/cellindex"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// MonochromaticSample estimates the monochromatic reverse top-k result for
// arbitrary dimensionality by Monte Carlo evaluation over the weighting
// simplex. Exact monochromatic algorithms are only known for 2-D (Vlachou
// et al. [31], Chester et al. [9], both cited in §2); in higher dimensions
// the result region is an intersection-of-halfspaces arrangement cell
// complex, and the paper itself notes that such geometric computations "do
// not scale well with the dimensionality" (§4.2). Sampling gives an
// unbiased estimate of the result's measure plus a witness set. For exact
// answers through the materialized cell index see MonochromaticND.
//
// It returns the sampled weighting vectors whose top-k contains q, and the
// fraction of samples that qualified (an unbiased estimator of the
// result's share of the weighting simplex under the uniform measure).
func MonochromaticSample(t *rtree.Tree, q vec.Point, k, samples int, rng *rand.Rand) ([]vec.Weight, float64) {
	if samples <= 0 {
		return nil, 0
	}
	d := t.Dim()
	var in []vec.Weight
	for i := 0; i < samples; i++ {
		w := sample.RandSimplex(rng, d)
		if topk.InTopK(t, w, q, k) {
			in = append(in, w)
		}
	}
	return in, float64(len(in)) / float64(samples)
}

// MonoCell is one cell of a d >= 3 monochromatic reverse top-k answer: the
// per-coordinate weight bounds of a simplex-grid cell intersecting the
// result region.
type MonoCell struct {
	// Lo and Hi are the cell's closed per-coordinate weight bounds.
	Lo, Hi []float64
	// Full reports that every weighting vector inside the bounds is in the
	// result (fewer than k candidates can beat q anywhere in the cell);
	// otherwise the cell is partial — the result boundary crosses it.
	Full bool
	// MidIn reports whether the cell midpoint's top-k contains q (always
	// true for full cells; for partial cells it is the kernel-verified
	// sample decision at the center).
	MidIn bool
}

// MonochromaticND answers the d >= 3 monochromatic reverse top-k query
// exactly from a materialized cell index over the snapshot, as grid cells:
// cells where even the most q-favorable corner comparison leaves fewer
// than k possible beaters (#{fl(f(lo,p)) < fl(f(hi,q))} < k) are Full —
// provably members everywhere; cells where the least favorable one
// already yields k beaters (#{fl(f(hi,p)) < fl(f(lo,q))} >= k) are
// provably empty and omitted; the rest are reported as partial with a
// kernel-verified midpoint decision. Every weighting vector whose top-k
// contains q lies in a reported cell. The exact 2-D answer is
// Monochromatic2D.
//
// The bracket behind the classification: for any w inside a cell and any
// candidate p, fl(f(w,p)) lies between the corner scores fl(f(lo,p)) and
// fl(f(hi,p)), and fl(f(w,q)) between fl(f(lo,q)) and fl(f(hi,q)), so
//
//	#{p : fl(f(hi,p)) < fl(f(lo,q))} <= count(w) <= #{p : fl(f(lo,p)) < fl(f(hi,q))}
//
// everywhere in the cell.
func MonochromaticND(g *cellindex.Grid, q vec.Point, k int) []MonoCell {
	d := g.Dim()
	var out []MonoCell
	mid := make([]float64, d)
	g.Cells(func(lo, hi []float64, cand [][]float64) {
		fqLo := vec.Score(vec.Weight(lo), q)
		fqHi := vec.Score(vec.Weight(hi), q)
		upper, lower := 0, 0
		n := len(cand[0])
		for i := 0; i < n; i++ {
			sLo := lo[0] * cand[0][i]
			sHi := hi[0] * cand[0][i]
			for j := 1; j < d; j++ {
				sLo += lo[j] * cand[j][i]
				sHi += hi[j] * cand[j][i]
			}
			if sLo < fqHi {
				upper++
			}
			if sHi < fqLo {
				lower++
			}
		}
		if lower >= k {
			return // provably empty: >= k candidates beat q everywhere here
		}
		cell := MonoCell{
			Lo:   append([]float64(nil), lo...),
			Hi:   append([]float64(nil), hi...),
			Full: upper < k,
		}
		if cell.Full {
			cell.MidIn = true
		} else {
			for j := 0; j < d; j++ {
				mid[j] = (lo[j] + hi[j]) / 2
			}
			fqMid := vec.Score(vec.Weight(mid), q)
			cnt, _ := kernel.CountBelowCapped(g.Basis(), mid, fqMid, k-1, 0, g.Basis().Len())
			cell.MidIn = cnt < k
		}
		out = append(out, cell)
	})
	return out
}
