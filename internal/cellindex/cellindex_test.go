package cellindex

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

func testPoints(rng *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// testGrid builds the grid of parameter k over all of pts — a
// count-preserving basis whatever k is, so small inputs build too.
func testGrid(t *testing.T, pts []vec.Point, k int) *Grid {
	t.Helper()
	var basis kernel.Coords
	basis.Reset(len(pts[0]))
	for _, p := range pts {
		basis.Append(p)
	}
	g := Build(&basis, k)
	if g == nil {
		t.Fatalf("grid declined for n=%d d=%d k=%d", len(pts), len(pts[0]), k)
	}
	return g
}

// naiveCount counts the basis points scoring strictly below fq under w,
// in vec.Score order — the uncapped scalar oracle for the cell scan.
func naiveCount(g *Grid, w vec.Weight, fq float64) int {
	cnt := 0
	b := g.Basis()
	for i := 0; i < b.Len(); i++ {
		s := w[0] * b.Col(0)[i]
		for j := 1; j < g.Dim(); j++ {
			s += w[j] * b.Col(j)[i]
		}
		if s < fq {
			cnt++
		}
	}
	return cnt
}

// TestGridCountMatchesBasis verifies the cell decision (capped candidate
// count vs k) against the uncapped basis count at random valid weights —
// the count-preservation property in its directly testable form.
func TestGridCountMatchesBasis(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(100 + d)))
		pts := testPoints(rng, 150+rng.Intn(200), d)
		for _, k := range []int{1, 3, 9} {
			g := testGrid(t, pts, k)
			q := pts[rng.Intn(len(pts))]
			for i := 0; i < 300; i++ {
				w := sample.RandSimplex(rng, d)
				fq := vec.Score(w, q)
				cnt, scanned, ok := g.CountBelowCapped(w, fq, k-1)
				if !ok {
					continue // legal whole-query fallback
				}
				if scanned < 1 {
					t.Fatalf("d=%d k=%d: empty scan for located weight", d, k)
				}
				want := naiveCount(g, w, fq)
				if (cnt < k) != (want < k) {
					t.Fatalf("d=%d k=%d w=%v: capped count %d, basis count %d disagree on membership",
						d, k, w, cnt, want)
				}
				if cnt <= k-1 && cnt != want {
					t.Fatalf("d=%d k=%d w=%v: under-cap count %d must be exact, basis has %d",
						d, k, w, cnt, want)
				}
			}
		}
	}
}

// TestGridEligibility pins the decline paths of Of: an unsupported
// dimensionality is nil before anything is built or counted, a
// pass-through band has no grid and counts a fallback, and repeated
// requests on one band share a single build.
func TestGridEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ct := NewCounters()
	sky5 := skyband.NewCache(rtree.Bulk(testPoints(rng, 120, 5), nil), nil)
	if Of(sky5.Band(3), ct) != nil {
		t.Fatal("5-D grid must decline")
	}
	if s := ct.Stats(sky5); s != (Stats{}) {
		t.Fatalf("dimension gate built or counted something: %+v", s)
	}

	sky := skyband.NewCache(rtree.Bulk(testPoints(rng, 120, 3), nil), nil)
	if b := sky.Band(30); !b.Full() || Of(b, ct) != nil {
		t.Fatal("a pass-through band must have no grid")
	}
	if s := ct.Stats(sky); s.Builds != 0 || s.Fallbacks != 1 {
		t.Fatalf("pass-through band: %+v", s)
	}
	g := Of(sky.Band(3), ct)
	if g == nil {
		t.Fatal("grid declined")
	}
	if Of(sky.Band(3), ct) != g {
		t.Fatal("a second read of the band rebuilt its grid")
	}
	s := ct.Stats(sky)
	if s.Builds != 1 || s.Grids != 1 || s.Cells != g.cells || s.Candidates < 1 {
		t.Fatalf("stats after one build and one read: %+v", s)
	}
}

// TestGridReverseTopKEmptyAndCancel covers the driver edges: empty weight
// sets answer immediately and a canceled context aborts.
func TestGridReverseTopKEmptyAndCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := testPoints(rng, 80, 2)
	g := testGrid(t, pts, 3)
	q := pts[0]
	res, scanned, ok, err := g.ReverseTopK(context.Background(), nil, q, 3)
	if err != nil || !ok || res != nil || scanned != 0 {
		t.Fatalf("empty weight set: %v %d %v %v", res, scanned, ok, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	W := []vec.Weight{sample.RandSimplex(rng, 2)}
	if _, _, _, err := g.ReverseTopK(ctx, W, q, 3); err == nil {
		t.Fatal("canceled context not observed")
	}
}

// TestCellIndexAllocsPerOp guards the cell-lookup hot path — reading the
// band's grid, point location and the capped candidate scan must not
// allocate — and bounds
// what a grid build allocates per built cell.
func TestCellIndexAllocsPerOp(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(40 + d)))
		pts := testPoints(rng, 300, d)
		k := 5
		g := testGrid(t, pts, k)
		q := pts[0]
		ws := make([]vec.Weight, 64)
		fqs := make([]float64, len(ws))
		for i := range ws {
			ws[i] = sample.RandSimplex(rng, d)
			fqs[i] = vec.Score(ws[i], q)
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			g.CountBelowCapped(ws[i%len(ws)], fqs[i%len(ws)], k-1)
			i++
		})
		if allocs != 0 {
			t.Fatalf("d=%d: CountBelowCapped allocates %.1f per op", d, allocs)
		}
		// Reading a built grid off its band, once per request, is free too.
		band, ct := skyband.NewCache(rtree.Bulk(pts, nil), nil).Band(k), NewCounters()
		if Of(band, ct) == nil {
			t.Fatalf("d=%d: band grid declined", d)
		}
		if allocs := testing.AllocsPerRun(100, func() { Of(band, ct) }); allocs != 0 {
			t.Fatalf("d=%d: Of allocates %.1f per read of a built grid", d, allocs)
		}
		// build sizes its per-cell scratch once and grows the candidate
		// columns amortized, so beyond that it allocates only sort.Slice's
		// two objects per built cell (measured 2·cells + 30–110). A slice
		// grown afresh in every cell costs at least six.
		basis := g.Basis()
		cells := g.cells
		if allocs := testing.AllocsPerRun(3, func() { Build(basis, k) }); allocs > float64(3*cells) {
			t.Fatalf("d=%d: build allocates %.0f objects for %d cells, want <= %d", d, allocs, cells, 3*cells)
		}
	}
}

// TestGridFollowsBand pins the grid lifecycle at band level: the grid is
// state of its band, so a band the skyband cache carries — across a
// clone or a mutation that leaves it unchanged — returns the
// pointer-identical grid without a build, and a dropped band's successor
// builds a new grid exactly once, however many readers race for it.
func TestGridFollowsBand(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := testPoints(rng, 400, 3)
	tree := rtree.Bulk(pts, nil)
	sky := skyband.NewCache(tree, nil)
	ct := NewCounters()
	g2, g5 := Of(sky.Band(2), ct), Of(sky.Band(5), ct)
	if g2 == nil || g5 == nil {
		t.Fatal("grids did not build")
	}

	// A clone carries every band, and every grid with it.
	clone := sky.Rebind(tree.Clone())
	if Of(clone.Band(2), ct) != g2 || Of(clone.Band(5), ct) != g5 {
		t.Fatal("rebind did not carry the grids with their bands")
	}
	if s := ct.Stats(clone); s.Builds != 2 || s.Grids != 2 {
		t.Fatalf("clone rebuilt or lost a grid: %+v", s)
	}

	// Deleting a point of the 5-band that is not in the 2-band drops the
	// 5-band; the 2-band and its grid stay.
	band5, _ := dominance.KSkyband(tree, 5, tree.Len())
	victim := int32(-1)
	for _, m := range band5 {
		if m.Count >= 2 {
			victim = m.ID
			break
		}
	}
	nsky := sky.AfterDelete(tree, victim)
	builds := nsky.Stats().Builds
	if nsky.Stats().Bands != 1 || nsky.Band(2) != sky.Band(2) || nsky.Stats().Builds != builds {
		t.Fatal("skyband carry did not split the bands as constructed")
	}
	if s := ct.Stats(nsky); s.Grids != 1 {
		t.Fatalf("the dropped band's grid is still reported: %+v", s)
	}
	if Of(nsky.Band(2), ct) != g2 {
		t.Fatal("the carried band did not keep its grid")
	}
	var wg sync.WaitGroup
	got := make([]*Grid, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Of(nsky.Band(5), ct)
		}(i)
	}
	wg.Wait()
	for _, g := range got {
		if g == nil || g == g5 || g != got[0] {
			t.Fatal("the dropped band's grid was not rebuilt once, shared by every reader")
		}
	}
	if n := nsky.Stats().Builds - builds; n != 1 {
		t.Fatalf("the dropped 5-band was built %d times, want once", n)
	}
	if s := ct.Stats(nsky); s.Builds != 3 || s.Grids != 2 {
		t.Fatalf("after the rebuild: %+v", s)
	}
}
