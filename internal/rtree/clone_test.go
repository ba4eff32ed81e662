package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"wqrtq/internal/vec"
)

// contents returns the tree's points as a sorted id list plus an id→point map.
func contents(t *Tree) ([]int, map[int32]vec.Point) {
	ids, pts := allPoints(t)
	m := make(map[int32]vec.Point, len(ids))
	out := make([]int, len(ids))
	for i, id := range ids {
		m[id] = pts[i]
		out[i] = int(id)
	}
	sort.Ints(out)
	return out, m
}

func equalContents(t *testing.T, a, b *Tree) {
	t.Helper()
	idsA, mA := contents(a)
	idsB, mB := contents(b)
	if len(idsA) != len(idsB) {
		t.Fatalf("trees hold %d and %d points", len(idsA), len(idsB))
	}
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatalf("id sets differ at position %d: %d vs %d", i, idsA[i], idsB[i])
		}
		id := int32(idsA[i])
		if !vec.Equal(mA[id], mB[id]) {
			t.Fatalf("point %d differs: %v vs %v", id, mA[id], mB[id])
		}
	}
}

func TestCloneIsolatesMutationsOfClone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 500, 3)
	orig := New(3)
	for i, p := range pts {
		orig.Insert(p, int32(i))
	}
	frozen := orig.Clone() // capture a reference copy of the original content
	snap := orig.Clone()

	// Hammer the clone with inserts and deletes.
	extra := randPoints(rng, 200, 3)
	c := orig
	for i, p := range extra {
		c.Insert(p, int32(500+i))
	}
	for i := 0; i < 150; i++ {
		id := rng.Intn(700)
		var victim vec.Point
		c.Visit(nil, func(pid int32, p vec.Point) {
			if int(pid) == id {
				victim = p
			}
		})
		if victim != nil {
			c.Delete(victim, int32(id))
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("mutated tree: %v", err)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	equalContents(t, snap, frozen)
	if snap.Len() != 500 {
		t.Fatalf("snapshot Len = %d, want 500", snap.Len())
	}
}

func TestCloneIsolatesMutationsOfOriginal(t *testing.T) {
	// The symmetric direction: after Clone, mutating the clone must not
	// disturb the original either (full persistence).
	rng := rand.New(rand.NewSource(2))
	pts := randPoints(rng, 400, 2)
	orig := New(2)
	for i, p := range pts {
		orig.Insert(p, int32(i))
	}
	ref := orig.Clone()
	c := orig.Clone()
	for i, p := range randPoints(rng, 300, 2) {
		c.Insert(p, int32(400+i))
	}
	for i := 0; i < 200; i += 2 {
		c.Delete(pts[i], int32(i))
	}
	if err := orig.CheckInvariants(); err != nil {
		t.Fatalf("original: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("clone: %v", err)
	}
	equalContents(t, orig, ref)
	if c.Len() != 400+300-100 {
		t.Fatalf("clone Len = %d, want %d", c.Len(), 600)
	}
}

func TestCloneChain(t *testing.T) {
	// A chain of clones, each mutated after cloning; every snapshot keeps
	// exactly the content it had at clone time.
	rng := rand.New(rand.NewSource(3))
	tr := New(3)
	next := 0
	insertSome := func(tr *Tree, n int) {
		for _, p := range randPoints(rng, n, 3) {
			tr.Insert(p, int32(next))
			next++
		}
	}
	insertSome(tr, 100)
	type snap struct {
		tr  *Tree
		len int
	}
	var snaps []snap
	for round := 0; round < 5; round++ {
		snaps = append(snaps, snap{tr.Clone(), tr.Len()})
		insertSome(tr, 80)
		// Delete a few live points from the working tree.
		ids, pts := allPoints(tr)
		for i := 0; i < 20; i++ {
			j := rng.Intn(len(ids))
			tr.Delete(pts[j], ids[j])
			ids = append(ids[:j], ids[j+1:]...)
			pts = append(pts[:j], pts[j+1:]...)
		}
	}
	for i, s := range snaps {
		if err := s.tr.CheckInvariants(); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if s.tr.Len() != s.len {
			t.Fatalf("snapshot %d: Len = %d, want %d", i, s.tr.Len(), s.len)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("working tree: %v", err)
	}
	if got, want := tr.Len(), 100+5*80-5*20; got != want {
		t.Fatalf("working tree Len = %d, want %d", got, want)
	}
}

func TestCloneEpochsAdvance(t *testing.T) {
	tr := New(2)
	e0 := tr.Epoch()
	c1 := tr.Clone()
	if c1.Epoch() <= e0 || tr.Epoch() <= e0 || c1.Epoch() == tr.Epoch() {
		t.Fatalf("epochs not distinct and increasing: orig %d→%d clone %d",
			e0, tr.Epoch(), c1.Epoch())
	}
	c2 := c1.Clone()
	if c2.Epoch() <= c1.Epoch() && c2.Epoch() <= tr.Epoch() {
		t.Fatalf("chained clone epoch %d not fresh (orig %d, c1 %d)",
			c2.Epoch(), tr.Epoch(), c1.Epoch())
	}
}

func TestCloneOfBulkLoadedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 1000, 3)
	tr := Bulk(pts, nil)
	snap := tr.Clone()
	for i, p := range randPoints(rng, 200, 3) {
		tr.Insert(p, int32(1000+i))
	}
	for i := 0; i < 300; i++ {
		tr.Delete(pts[i], int32(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("mutated: %v", err)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if snap.Len() != 1000 {
		t.Fatalf("snapshot Len = %d, want 1000", snap.Len())
	}
	ids, _ := allPoints(snap)
	if len(ids) != 1000 {
		t.Fatalf("snapshot reachable points = %d, want 1000", len(ids))
	}
}

// ownedNodes counts the nodes reachable from t's root that t's epoch owns:
// the nodes copied or created since t's last Clone.
func ownedNodes(t *Tree) int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		c := 0
		if n.epoch == t.epoch {
			c = 1
		}
		if !n.leaf {
			for i := range n.entries {
				c += walk(n.entries[i].child)
			}
		}
		return c
	}
	return walk(t.root)
}

// TestCloneDeleteCopiesOnlyThePath pins Delete's copy-on-write footprint:
// the search for the entry backtracks through overlapping subtrees, but
// only the path that leads to it may be copied. A deletion that leaves its
// leaf above the minimum fill (no condensation, no reinsertion) therefore
// owns at most Height() nodes, and the parent is untouched either way.
func TestCloneDeleteCopiesOnlyThePath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(rng, 3000, 3)
	// One-by-one insertion into small pages: a tall tree with overlapping
	// sibling rectangles, so most searches meet dead ends.
	tr := New(3, Options{PageSize: 512})
	for i, p := range pts {
		tr.Insert(p, int32(i))
	}
	if height(tr) < 3 {
		t.Fatalf("height %d: tree too shallow to exercise backtracking", height(tr))
	}
	ref := tr.Clone()
	leafOf := map[int32]*Node{}
	var index func(n *Node)
	index = func(n *Node) {
		for i := range n.entries {
			if n.leaf {
				leafOf[n.entries[i].id] = n
			} else {
				index(n.entries[i].child)
			}
		}
	}
	index(tr.root)
	checked := 0
	for id := int32(0); id < int32(len(pts)); id += 7 {
		condenses := len(leafOf[id].entries) <= tr.minFill
		c := tr.Clone()
		if !c.Delete(pts[id], id) {
			t.Fatalf("id %d not found", id)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("clone after deleting %d: %v", id, err)
		}
		if c.Len() != len(pts)-1 {
			t.Fatalf("clone Len = %d after one delete of %d", c.Len(), len(pts))
		}
		if !condenses {
			checked++
			if got, h := ownedNodes(c), height(c); got > h {
				t.Fatalf("deleting id %d copied %d nodes, tree height %d", id, got, h)
			}
		}
		if c.Delete(pts[id], id) {
			t.Fatalf("id %d deleted twice", id)
		}
	}
	if checked == 0 {
		t.Fatal("no deletion avoided condensation; the bound was never checked")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("parent: %v", err)
	}
	equalContents(t, tr, ref)
	for id := int32(0); id < int32(len(pts)); id += 97 {
		got := search(tr, PointRect(pts[id]))
		found := false
		for _, g := range got {
			found = found || g == id
		}
		if !found {
			t.Fatalf("parent lost id %d", id)
		}
	}
}
