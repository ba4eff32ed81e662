package cellindex

import (
	"context"
	"math/rand"
	"testing"

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

func testGrid(t *testing.T, pts []vec.Point, k int) (*Grid, *Cache) {
	t.Helper()
	tree := rtree.Bulk(pts, nil)
	c := NewCache(skyband.NewCache(tree, nil), len(pts[0]), nil)
	g := c.Grid(k)
	if g == nil {
		t.Fatalf("grid declined for n=%d d=%d k=%d", len(pts), len(pts[0]), k)
	}
	return g, c
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
			g, _ := testGrid(t, pts, k)
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

// TestGridEligibility pins the decline paths: unsupported dimensionality
// is silently nil, k-diversity beyond maxGrids falls back and counts it,
// and repeated requests for one k share a single build.
func TestGridEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := testPoints(rng, 120, 3)
	tree := rtree.Bulk(pts, nil)

	ct := NewCounters()
	if c := NewCache(skyband.NewCache(tree, nil), 5, ct); c.Grid(3) != nil {
		t.Fatal("5-D grid must decline")
	}
	if s := ct.Snapshot(); s.Builds != 0 {
		t.Fatalf("dimension gate built something: %+v", s)
	}

	ct = NewCounters()
	c := NewCache(skyband.NewCache(tree, nil), 3, ct)
	for k := 1; k <= maxGrids; k++ {
		if c.Grid(k) == nil {
			t.Fatalf("grid %d of %d declined", k, maxGrids)
		}
	}
	if c.Grid(maxGrids+1) != nil {
		t.Fatal("grid beyond maxGrids must decline")
	}
	s := ct.Snapshot()
	if s.Builds != int64(maxGrids) || s.Fallbacks != 1 {
		t.Fatalf("unexpected counters after cache-pressure decline: %+v", s)
	}
	if c.Grid(1) == nil {
		t.Fatal("cached grid lost")
	}
	if s = ct.Snapshot(); s.Hits != 1 || s.Builds != int64(maxGrids) {
		t.Fatalf("repeat request did not hit the cache: %+v", s)
	}
	st := c.Stats()
	if st.Grids != maxGrids || st.Cells < 1 || st.Candidates < 1 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestGridReverseTopKEmptyAndCancel covers the driver edges: empty weight
// sets answer immediately and a canceled context aborts.
func TestGridReverseTopKEmptyAndCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := testPoints(rng, 80, 2)
	g, _ := testGrid(t, pts, 3)
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

// TestCellIndexAllocsPerOp guards the cell-lookup hot path — point
// location plus the capped candidate scan must not allocate — and bounds
// what a grid build allocates per built cell.
func TestCellIndexAllocsPerOp(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(int64(40 + d)))
		pts := testPoints(rng, 300, d)
		k := 5
		g, _ := testGrid(t, pts, k)
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
		// build sizes its per-cell scratch once and grows the candidate
		// columns amortized, so beyond that it allocates only sort.Slice's
		// two objects per built cell (measured 2·cells + 30–110). A slice
		// grown afresh in every cell costs at least six.
		band := skyband.NewCache(rtree.Bulk(pts, nil), nil).Band(k)
		band.Coords()
		cells := g.NumCells()
		if allocs := testing.AllocsPerRun(3, func() { build(band, k, d) }); allocs > float64(3*cells) {
			t.Fatalf("d=%d: build allocates %.0f objects for %d cells, want <= %d", d, allocs, cells, 3*cells)
		}
	}
}

// TestCarryFollowsBasis pins the grid lifecycle: a finished entry — grid
// or recorded decline — moves to the next snapshot's cache exactly when
// that snapshot's skyband cache holds the entry's basis band,
// pointer-identical; an entry still building is left behind uncounted.
func TestCarryFollowsBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := testPoints(rng, 400, 3)
	tree := rtree.Bulk(pts, nil)
	sky := skyband.NewCache(tree, nil)
	c := NewCache(sky, 3, nil)
	g2, g5 := c.Grid(2), c.Grid(5)
	if g2 == nil || g5 == nil {
		t.Fatal("grids did not build")
	}
	// A recorded decline over the 7-band, and an entry still in flight.
	declined := &gridEntry{}
	declined.basis.Store(sky.Band(7))
	c.ents[7] = declined
	c.ents[9] = &gridEntry{}

	// A clone keeps everything finished and counts nothing.
	nc := c.Carry(sky.Rebind(tree.Clone()), false)
	if nc.Grid(2) != g2 || nc.Grid(5) != g5 || nc.ents[7] != declined || nc.ents[9] != nil {
		t.Fatal("rebind did not carry exactly the finished entries")
	}
	if s := c.ct.Snapshot(); s.Carried != 0 || s.Dropped != 0 || s.Builds != 2 {
		t.Fatalf("clone counted as a mutation or rebuilt: %+v", s)
	}

	// Deleting a point of the 5-band that is not in the 2-band drops the
	// 5- and 7-band, so their entries go; the 2-grid stays.
	keep2, keep5 := sky.Band(2).Keep(2), sky.Band(5).Keep(5)
	victim := int32(0)
	for !keep5(victim) || keep2(victim) {
		victim++
	}
	nsky := sky.AfterDelete(tree, victim)
	if nsky.Peek(2) == nil || nsky.Peek(5) != nil || nsky.Peek(7) != nil {
		t.Fatal("skyband carry did not split the bands as constructed")
	}
	nc = c.Carry(nsky, true)
	if len(nc.ents) != 1 || nc.Grid(2) != g2 {
		t.Fatalf("carry kept %d entries, want only the 2-grid", len(nc.ents))
	}
	if s := c.ct.Snapshot(); s.Carried != 1 || s.Dropped != 2 {
		t.Fatalf("three finished entries counted carried=%d dropped=%d", s.Carried, s.Dropped)
	}
	if st := nc.Stats(); st.Grids != 1 {
		t.Fatalf("stats after carry: %+v", st)
	}
}
