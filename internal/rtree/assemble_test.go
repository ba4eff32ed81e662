package rtree

import (
	"fmt"
	"math/rand"
	"testing"

	"wqrtq/internal/vec"
)

// disassemble walks t depth-first exactly like the page serializer does and
// feeds the pieces back through an Assembler.
func disassemble(t *Tree) (*Assembler, int, error) {
	a, err := NewAssembler(t.Dim(), t.MaxEntries(), t.MinEntries(), t.NodeCount())
	if err != nil {
		return nil, 0, err
	}
	idx := map[*Node]int{}
	var order []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		idx[n] = len(order)
		order = append(order, n)
		if !n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				walk(n.Child(i))
			}
		}
	}
	walk(t.Root())
	for _, n := range order {
		if n.IsLeaf() {
			ids := make([]int32, n.NumEntries())
			pts := make([]vec.Point, n.NumEntries())
			for i := range ids {
				ids[i] = n.PointID(i)
				pts[i] = n.Point(i)
			}
			if err := a.AddLeaf(idx[n], ids, pts); err != nil {
				return nil, 0, err
			}
		} else {
			rects := make([]Rect, n.NumEntries())
			kids := make([]int, n.NumEntries())
			for i := range rects {
				rects[i] = CloneRect(n.EntryRect(i))
				kids[i] = idx[n.Child(i)]
			}
			if err := a.AddInternal(idx[n], rects, kids); err != nil {
				return nil, 0, err
			}
		}
	}
	return a, idx[t.Root()], nil
}

// dump renders the structure (shape, entry order, rects, ids, counts) in a
// form independent of node identity and epochs.
func dump(n *Node) string {
	s := fmt.Sprintf("[leaf=%v count=%d", n.IsLeaf(), n.Count())
	for i := 0; i < n.NumEntries(); i++ {
		r := n.EntryRect(i)
		s += fmt.Sprintf(" {%v %v", r.Min, r.Max)
		if n.IsLeaf() {
			s += fmt.Sprintf(" id=%d}", n.PointID(i))
		} else {
			s += " " + dump(n.Child(i)) + "}"
		}
	}
	return s + "]"
}

func TestAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 40, 300} {
		pts := make([]vec.Point, n)
		ids := make([]int32, n)
		for i := range pts {
			pts[i] = vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
			ids[i] = int32(i)
		}
		tr := Bulk(pts, ids)
		// Mix in dynamic mutations so assembled trees are not bulk-only.
		for i := 0; i < n/4; i++ {
			tr.Delete(pts[i], ids[i])
		}
		for i := 0; i < n/4; i++ {
			p := vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
			pts = append(pts, p)
			tr.Insert(p, int32(len(pts)-1))
		}

		a, root, err := disassemble(tr)
		if err != nil {
			t.Fatalf("n=%d: disassemble: %v", n, err)
		}
		got, err := a.Finish(root, tr.Len())
		if err != nil {
			t.Fatalf("n=%d: Finish: %v", n, err)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: invariants: %v", n, err)
		}
		if got.Len() != tr.Len() || got.NodeCount() != tr.NodeCount() ||
			got.Dim() != tr.Dim() || got.MaxEntries() != tr.MaxEntries() || got.MinEntries() != tr.MinEntries() {
			t.Fatalf("n=%d: geometry mismatch", n)
		}
		if d1, d2 := dump(tr.Root()), dump(got.Root()); d1 != d2 {
			t.Fatalf("n=%d: structure differs\n orig: %s\n rebuilt: %s", n, d1, d2)
		}
		// AddLeaf copies the points it was handed — disassemble hands it
		// the original tree's — into the leaves' blocks (CheckInvariants
		// holds the entries to those): no leaf point aliases its source.
		handed := map[int32]vec.Point{}
		tr.Visit(nil, func(id int32, p vec.Point) { handed[id] = p })
		var checkAlias func(n *Node)
		checkAlias = func(nd *Node) {
			if nd.IsLeaf() {
				for i := 0; i < nd.NumEntries(); i++ {
					p := nd.Point(i)
					q := handed[nd.PointID(i)]
					if !vec.Equal(p, q) || &p[0] == &q[0] {
						t.Fatalf("n=%d: leaf point id %d is not a copy of its source", n, nd.PointID(i))
					}
				}
				return
			}
			for i := 0; i < nd.NumEntries(); i++ {
				checkAlias(nd.Child(i))
			}
		}
		checkAlias(got.Root())
	}
}

func TestAssembleEmptyTree(t *testing.T) {
	tr := New(2)
	a, root, err := disassemble(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Finish(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.NodeCount() != 1 || !got.Root().IsLeaf() {
		t.Fatalf("empty tree rebuilt wrong: len=%d nodes=%d", got.Len(), got.NodeCount())
	}
}

func TestAssembleRejectsMalformed(t *testing.T) {
	p := vec.Point{1, 2}
	mk := func() *Assembler {
		a, err := NewAssembler(2, 8, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	leafArgs := func(a *Assembler, idx int) error {
		return a.AddLeaf(idx, []int32{0}, []vec.Point{p})
	}

	t.Run("missing node", func(t *testing.T) {
		a := mk()
		if err := leafArgs(a, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Finish(0, 1); err == nil {
			t.Fatal("want error for missing node")
		}
	})
	t.Run("duplicate node", func(t *testing.T) {
		a := mk()
		if err := leafArgs(a, 0); err != nil {
			t.Fatal(err)
		}
		if err := leafArgs(a, 0); err == nil {
			t.Fatal("want error for duplicate index")
		}
	})
	t.Run("doubly referenced child", func(t *testing.T) {
		a, _ := NewAssembler(2, 8, 3, 2)
		if err := a.AddInternal(0, []Rect{PointRect(p), PointRect(p)}, []int{1, 1}); err != nil {
			t.Fatal(err)
		}
		if err := leafArgs(a, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Finish(0, 2); err == nil {
			t.Fatal("want error for doubly referenced child")
		}
	})
	t.Run("cycle off the root", func(t *testing.T) {
		a, _ := NewAssembler(2, 8, 3, 3)
		if err := leafArgs(a, 0); err != nil {
			t.Fatal(err)
		}
		if err := a.AddInternal(1, []Rect{PointRect(p)}, []int{2}); err != nil {
			t.Fatal(err)
		}
		if err := a.AddInternal(2, []Rect{PointRect(p)}, []int{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Finish(0, 1); err == nil {
			t.Fatal("want error for unreachable cycle")
		}
	})
	t.Run("count mismatch", func(t *testing.T) {
		a := mk()
		if err := leafArgs(a, 0); err != nil {
			t.Fatal(err)
		}
		if err := leafArgs(a, 1); err != nil {
			t.Fatal(err)
		}
		// Node 1 unreferenced and not root -> also malformed, but use a
		// well-linked single-node assembly with a wrong size instead.
		a2, _ := NewAssembler(2, 8, 3, 1)
		if err := leafArgs(a2, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := a2.Finish(0, 5); err == nil {
			t.Fatal("want error for size mismatch")
		}
	})
}
