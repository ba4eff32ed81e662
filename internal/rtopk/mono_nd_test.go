package rtopk

import (
	"math/rand"
	"testing"

	"wqrtq/internal/cellindex"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// TestMonochromaticNDWitness3D cross-checks the d=3 cell answer against
// Monte Carlo witnesses: every sampled weighting vector whose top-k
// contains q must lie inside a reported cell's bounds, and every reported
// cell's midpoint decision must agree with a direct top-k membership test
// on the full tree (full cells in particular must verify as members).
func TestMonochromaticNDWitness3D(t *testing.T) {
	for c := 0; c < 12; c++ {
		rng := rand.New(rand.NewSource(int64(5300 + c)))
		n := 40 + rng.Intn(260)
		k := 1 + rng.Intn(8)
		pts := make([]vec.Point, n)
		for i := range pts {
			pts[i] = vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		base := pts[rng.Intn(n)]
		q := vec.Point{base[0] * 0.9, base[1] * 0.9, base[2] * 0.9}
		tree := rtree.Bulk(pts, nil)
		g := cellindex.NewCache(skyband.NewCache(tree, nil), 3, nil).Grid(k)
		if g == nil {
			t.Fatalf("case %d: grid declined", c)
		}
		cells := MonochromaticND(g, q, k)
		for ci, cell := range cells {
			if len(cell.Lo) != 3 || len(cell.Hi) != 3 {
				t.Fatalf("case %d cell %d: bad bounds %v %v", c, ci, cell.Lo, cell.Hi)
			}
			mid := vec.Weight{
				(cell.Lo[0] + cell.Hi[0]) / 2,
				(cell.Lo[1] + cell.Hi[1]) / 2,
				(cell.Lo[2] + cell.Hi[2]) / 2,
			}
			in := topk.InTopK(tree, mid, q, k)
			if in != cell.MidIn {
				t.Fatalf("case %d cell %d: MidIn=%v but InTopK=%v at %v", c, ci, cell.MidIn, in, mid)
			}
			if cell.Full && !in {
				t.Fatalf("case %d cell %d: full cell with non-member midpoint %v", c, ci, mid)
			}
		}
		in, _ := MonochromaticSample(tree, q, k, 400, rng)
		for _, w := range in {
			if !inReportedCell(cells, w) {
				t.Fatalf("case %d: witness %v (member) outside every reported cell", c, w)
			}
		}
	}
}

// inReportedCell reports whether w lies inside some cell's closed bounds.
func inReportedCell(cells []MonoCell, w vec.Weight) bool {
	for _, c := range cells {
		ok := true
		for j := range w {
			if w[j] < c.Lo[j] || w[j] > c.Hi[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestMonochromaticNDSampleConsistency checks the other direction of the
// 3-D cell answer at arbitrary points rather than cell midpoints: a
// sampled weighting vector whose top-k misses q lies in no Full cell, since
// a Full cell is proven to lie inside the result everywhere in its closed
// bounds. (That every member lies in some reported cell is
// TestMonochromaticNDWitness3D's check.)
func TestMonochromaticNDSampleConsistency(t *testing.T) {
	for c := 0; c < 10; c++ {
		rng := rand.New(rand.NewSource(int64(6400 + c)))
		n := 20 + rng.Intn(150)
		k := 1 + rng.Intn(6)
		pts := make([]vec.Point, n)
		for i := range pts {
			pts[i] = vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		}
		q := vec.Point{rng.Float64() * 0.6, rng.Float64() * 0.6, rng.Float64() * 0.6}
		tree := rtree.Bulk(pts, nil)
		g := cellindex.NewCache(skyband.NewCache(tree, nil), 3, nil).Grid(k)
		if g == nil {
			t.Fatalf("case %d: grid declined", c)
		}
		var full []MonoCell
		for _, cell := range MonochromaticND(g, q, k) {
			if cell.Full {
				full = append(full, cell)
			}
		}
		for s := 0; s < 400; s++ {
			w := sample.RandSimplex(rng, 3)
			if !topk.InTopK(tree, w, q, k) && inReportedCell(full, w) {
				t.Fatalf("case %d sample %d: non-member %v lies in a Full cell", c, s, w)
			}
		}
	}
}
