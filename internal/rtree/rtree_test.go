package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"wqrtq/internal/vec"
)

// allPoints returns every (id, point) pair in the tree, in traversal order.
func allPoints(t *Tree) ([]int32, []vec.Point) {
	var ids []int32
	var pts []vec.Point
	t.Visit(nil, func(id int32, p vec.Point) {
		ids = append(ids, id)
		pts = append(pts, p)
	})
	return ids, pts
}

// height is the number of levels (1 for a tree that is a single leaf).
func height(t *Tree) int {
	h := 1
	for n := t.root; !n.leaf; n = n.entries[0].child {
		h++
	}
	return h
}

// search returns the ids of all points inside r, by a full scan.
func search(t *Tree, r Rect) []int32 {
	var ids []int32
	t.Visit(nil, func(id int32, p vec.Point) {
		if r.ContainsPoint(p) {
			ids = append(ids, id)
		}
	})
	return ids
}

func randPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float64() * 100
		}
		pts[i] = p
	}
	return pts
}

func TestFanoutFromPageSize(t *testing.T) {
	// d=3: entry = 16*3+8 = 56 bytes; (4096-16)/56 = 72.
	tr := New(3)
	if got := tr.MaxEntries(); got != 72 {
		t.Errorf("MaxEntries = %d, want 72", got)
	}
	if got := tr.MinEntries(); got != 28 {
		t.Errorf("MinEntries = %d, want 28 (40%% of 72)", got)
	}
	// Tiny page still yields a workable fanout.
	tiny := New(10, Options{PageSize: 64})
	if tiny.MaxEntries() < 4 {
		t.Errorf("MaxEntries = %d, want >= 4", tiny.MaxEntries())
	}
	// PageSizeFor inverts the derivation: the page it names is the
	// smallest with exactly that fanout.
	for _, dim := range []int{1, 2, 3, 6, 13, 16} {
		for _, f := range []int{4, 5, 7, 16, 18, 72} {
			ps := PageSizeFor(dim, f)
			if got := New(dim, Options{PageSize: ps}).MaxEntries(); got != f {
				t.Errorf("d=%d: PageSizeFor(%d) = %d gives fanout %d", dim, f, ps, got)
			}
			if got := New(dim, Options{PageSize: ps - 1}).MaxEntries(); f > 4 && got != f-1 {
				t.Errorf("d=%d: a page one byte below PageSizeFor(%d) gives fanout %d, want %d", dim, f, got, f-1)
			}
		}
	}
}

func TestInsertSearchExactness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 10, 200, 3000} {
		pts := randPoints(r, n, 2)
		tr := New(2, Options{PageSize: 256})
		for i, p := range pts {
			tr.Insert(p, int32(i))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		// Compare range query against linear scan.
		for trial := 0; trial < 20; trial++ {
			lo := vec.Point{r.Float64() * 80, r.Float64() * 80}
			hi := vec.Point{lo[0] + r.Float64()*30, lo[1] + r.Float64()*30}
			q := Rect{Min: lo, Max: hi}
			got := search(tr, q)
			var want []int32
			for i, p := range pts {
				if q.ContainsPoint(p) {
					want = append(want, int32(i))
				}
			}
			sortInt32(got)
			sortInt32(want)
			if !equalInt32(got, want) {
				t.Fatalf("n=%d: search mismatch: got %d ids, want %d", n, len(got), len(want))
			}
		}
	}
}

func TestBulkMatchesInsertResults(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 72, 73, 500, 5000} {
		for _, d := range []int{2, 3, 5} {
			pts := randPoints(r, n, d)
			bt := Bulk(pts, nil)
			if err := bt.CheckInvariants(); err != nil {
				t.Fatalf("bulk n=%d d=%d: %v", n, d, err)
			}
			if bt.Len() != n {
				t.Fatalf("bulk Len = %d, want %d", bt.Len(), n)
			}
			// Every point must be findable.
			for i, p := range pts {
				got := search(bt, PointRect(p))
				found := false
				for _, id := range got {
					if id == int32(i) {
						found = true
					}
				}
				if !found {
					t.Fatalf("bulk n=%d d=%d: point %d not found", n, d, i)
				}
			}
		}
	}
}

func TestBulkNodeCountMatchesStructure(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := randPoints(r, 4000, 3)
	tr := Bulk(pts, nil)
	if got, want := tr.NodeCount(), countNodes(tr.Root()); got != want {
		t.Errorf("NodeCount = %d, structural count = %d", got, want)
	}
	if height(tr) < 2 {
		t.Errorf("Height = %d, want >= 2 for 4000 points", height(tr))
	}
}

// TestBulkCopiesInLeafOrder pins Bulk's layout: every point is a copy of
// its input, equal to it but not aliasing it, and the copies lie one after
// another in the order a walk meets the leaves.
func TestBulkCopiesInLeafOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 3, 13} {
		pts := randPoints(r, 3000, d)
		tr := Bulk(pts, nil)
		var prev vec.Point
		n := 0
		tr.Visit(nil, func(id int32, p vec.Point) {
			n++
			if !vec.Equal(p, pts[id]) || &p[0] == &pts[id][0] {
				t.Fatalf("d=%d: id %d is %v, input %v (aliased: %v)", d, id, p, pts[id], &p[0] == &pts[id][0])
			}
			if prev != nil && unsafe.Add(unsafe.Pointer(&prev[0]), 8*d) != unsafe.Pointer(&p[0]) {
				t.Fatalf("d=%d: id %d does not follow the previous leaf point in memory", d, id)
			}
			prev = p
		})
		if n != len(pts) {
			t.Fatalf("d=%d: visited %d points, want %d", d, n, len(pts))
		}
	}
}

// TestBulkInternalRectBlocks pins where Bulk puts an internal node's
// rectangles: in one block per node, entry j's lower corner and then its
// upper corner at 2·d·j, the layout own gives a node it copies.
func TestBulkInternalRectBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, d := range []int{2, 3, 13} {
		tr := Bulk(randPoints(r, 5000, d), nil, Options{PageSize: PageSizeFor(d, 8)})
		var walk func(n *Node)
		walk = func(n *Node) {
			if n.leaf {
				return
			}
			base := unsafe.Pointer(&n.entries[0].rect.Min[0])
			for j, e := range n.entries {
				if unsafe.Pointer(&e.rect.Min[0]) != unsafe.Add(base, 8*2*d*j) || unsafe.Pointer(&e.rect.Max[0]) != unsafe.Add(base, 8*(2*d*j+d)) {
					t.Fatalf("d=%d: entry %d's rectangle is not at 2·d·%d of its node's block", d, j, j)
				}
				walk(e.child)
			}
		}
		walk(tr.root)
	}
}

func TestDeleteMaintainsInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pts := randPoints(r, 800, 3)
	tr := New(3, Options{PageSize: 512})
	for i, p := range pts {
		tr.Insert(p, int32(i))
	}
	perm := r.Perm(len(pts))
	for step, idx := range perm {
		if !tr.Delete(pts[idx], int32(idx)) {
			t.Fatalf("step %d: Delete(%d) returned false", step, idx)
		}
		if step%97 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Deleting from an empty tree fails gracefully.
	if tr.Delete(pts[0], 0) {
		t.Error("Delete on empty tree returned true")
	}
}

func TestDeleteNonexistent(t *testing.T) {
	tr := New(2)
	tr.Insert(vec.Point{1, 2}, 7)
	if tr.Delete(vec.Point{1, 2}, 8) {
		t.Error("deleted entry with wrong id")
	}
	if tr.Delete(vec.Point{3, 4}, 7) {
		t.Error("deleted entry with wrong point")
	}
	if !tr.Delete(vec.Point{1, 2}, 7) {
		t.Error("failed to delete existing entry")
	}
}

func TestMixedInsertDeleteQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		tr := New(d, Options{PageSize: 256})
		live := map[int32]vec.Point{}
		next := int32(0)
		for op := 0; op < 300; op++ {
			if len(live) == 0 || r.Float64() < 0.6 {
				p := make(vec.Point, d)
				for j := range p {
					p[j] = float64(r.Intn(50)) // duplicates likely
				}
				tr.Insert(p, next)
				live[next] = p
				next++
			} else {
				// Delete a random live id.
				var id int32
				for k := range live {
					id = k
					break
				}
				if !tr.Delete(live[id], id) {
					return false
				}
				delete(live, id)
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		if err := tr.CheckInvariants(); err != nil {
			return false
		}
		ids, _ := allPoints(tr)
		if len(ids) != len(live) {
			return false
		}
		for _, id := range ids {
			if _, ok := live[id]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestVisitPruning(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := randPoints(r, 2000, 2)
	tr := Bulk(pts, nil)
	// Prune everything: no points visited.
	visited := 0
	tr.Visit(func(Rect, *Node) bool { return false }, func(int32, vec.Point) { visited++ })
	if visited != 0 {
		t.Errorf("visited %d points with full pruning", visited)
	}
	// No pruning: all points visited.
	tr.Visit(nil, func(int32, vec.Point) { visited++ })
	if visited != 2000 {
		t.Errorf("visited %d points, want 2000", visited)
	}
}

func TestRectOperations(t *testing.T) {
	a := Rect{Min: []float64{0, 0}, Max: []float64{2, 2}}
	b := Rect{Min: []float64{1, 1}, Max: []float64{3, 3}}
	if got := a.Area(); got != 4 {
		t.Errorf("Area = %v", got)
	}
	if got := a.Margin(); got != 4 {
		t.Errorf("Margin = %v", got)
	}
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("OverlapArea = %v", got)
	}
	if got := a.EnlargedArea(b); got != 9 {
		t.Errorf("EnlargedArea = %v", got)
	}
	c := Rect{Min: []float64{5, 5}, Max: []float64{6, 6}}
	if a.OverlapArea(c) != 0 {
		t.Error("disjoint overlap != 0")
	}
	if !a.Contains(Rect{Min: []float64{0.5, 0.5}, Max: []float64{1, 1}}) {
		t.Error("Contains = false")
	}
	if a.Contains(b) {
		t.Error("partial containment accepted")
	}
}

// TestSplitCoversMatchCoverRect holds split's prefix and suffix sweeps to
// the covers coverRect builds from scratch, over point and box entries
// whose coordinates tie.
func TestSplitCoversMatchCoverRect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for d := 1; d <= 4; d++ {
		for trial := 0; trial < 50; trial++ {
			es := make([]entry, 2+rng.Intn(30))
			for i := range es {
				lo, hi := make([]float64, d), make([]float64, d)
				for j := range lo {
					lo[j] = float64(rng.Intn(6)) / 4
					hi[j] = lo[j]
					if i%2 == 1 {
						hi[j] += float64(rng.Intn(3)) / 4
					}
				}
				es[i] = entry{rect: Rect{Min: lo, Max: hi}}
			}
			cv := newSplitCovers(d, len(es))
			cv.fill(es)
			for k := 1; k < len(es); k++ {
				for _, c := range []struct {
					got, want Rect
				}{{cv.left(k), coverRect(es[:k])}, {cv.right(k), coverRect(es[k:])}} {
					for j := 0; j < d; j++ {
						if c.got.Min[j] != c.want.Min[j] || c.got.Max[j] != c.want.Max[j] {
							t.Fatalf("d=%d n=%d k=%d: cover %v, want %v", d, len(es), k, c.got, c.want)
						}
					}
				}
			}
		}
	}
}

func TestRectScoreBounds(t *testing.T) {
	r := Rect{Min: []float64{1, 2}, Max: []float64{3, 5}}
	w := vec.Weight{0.5, 0.5}
	if got := r.MinScore(w); got != 1.5 {
		t.Errorf("MinScore = %v, want 1.5", got)
	}
	if got := r.MaxScore(w); got != 4 {
		t.Errorf("MaxScore = %v, want 4", got)
	}
	// Every point inside must score within the bounds.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		p := vec.Point{1 + 2*rng.Float64(), 2 + 3*rng.Float64()}
		s := vec.Score(w, p)
		if s < r.MinScore(w)-1e-12 || s > r.MaxScore(w)+1e-12 {
			t.Fatalf("score %v outside [%v, %v]", s, r.MinScore(w), r.MaxScore(w))
		}
	}
}

func TestRectDominatedBy(t *testing.T) {
	q := vec.Point{2, 2}
	if !(Rect{Min: []float64{2, 2}, Max: []float64{5, 5}}).DominatedBy(q) {
		t.Error("rect at q not treated as dominated")
	}
	if (Rect{Min: []float64{1, 3}, Max: []float64{5, 5}}).DominatedBy(q) {
		t.Error("rect extending below q treated as dominated")
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := New(2, Options{PageSize: 128})
	p := vec.Point{1, 1}
	for i := 0; i < 100; i++ {
		tr.Insert(p, int32(i))
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := search(tr, PointRect(p))
	if len(got) != 100 {
		t.Fatalf("found %d duplicates, want 100", len(got))
	}
	for i := 0; i < 100; i++ {
		if !tr.Delete(p, int32(i)) {
			t.Fatalf("failed to delete duplicate %d", i)
		}
	}
}

func TestBulkLargeBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := rand.New(rand.NewSource(100))
	pts := randPoints(r, 100000, 3)
	tr := Bulk(pts, nil)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// STR over 100K points with fanout 72 should give height 3.
	if h := height(tr); h != 3 {
		t.Errorf("Height = %d, want 3", h)
	}
}

func sortInt32(s []int32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
