package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"wqrtq/internal/vec"
)

// leafRows returns a bit copy of every leaf block of t, keyed by leaf.
func leafRows(t *Tree) map[*Node][]uint64 {
	out := map[*Node][]uint64{}
	var walk func(n *Node)
	walk = func(n *Node) {
		if !n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				walk(n.Child(i))
			}
			return
		}
		bits := make([]uint64, len(n.Rows()))
		for i, v := range n.Rows() {
			bits[i] = math.Float64bits(v)
		}
		out[n] = bits
	}
	walk(t.Root())
	return out
}

// sameRows reports the first leaf of want whose block no longer holds the
// bits recorded for it.
func sameRows(want map[*Node][]uint64) error {
	for n, bits := range want {
		rows := n.Rows()
		if len(rows) != len(bits) {
			return fmt.Errorf("a leaf block changed length %d -> %d", len(bits), len(rows))
		}
		for i, v := range rows {
			if math.Float64bits(v) != bits[i] {
				return fmt.Errorf("a leaf block changed at %d", i)
			}
		}
	}
	return nil
}

// TestLeafBlocks holds every way a tree is built or changed to the leaf
// block invariant that CheckInvariants asserts — each leaf's entries alias
// its Rows() in order — at a fanout small enough that inserts split leaves
// and deletes dissolve them: bulk load, assembly from pages, insert with
// splits, and delete with condensation. Insert copies its point, so the
// caller's slice is free afterwards. And a published block is never
// written: while a clone inserts into and deletes from the very leaves an
// old snapshot shares, a reader of the old snapshot's Rows() (concurrent,
// so the race detector sees any write) finds every block bit-identical.
func TestLeafBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{2, 3, 6} {
		pts := randPoints(rng, 600, d)
		opts := Options{PageSize: PageSizeFor(d, 8)}
		check := func(what string, tr *Tree) {
			t.Helper()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("d=%d %s: %v", d, what, err)
			}
		}

		bulk := Bulk(pts, nil, opts)
		check("bulk load", bulk)
		a, root, err := disassemble(bulk)
		if err != nil {
			t.Fatal(err)
		}
		assembled, err := a.Finish(root, bulk.Len())
		if err != nil {
			t.Fatal(err)
		}
		check("assembly", assembled)

		inserted := New(d, opts)
		for i, p := range pts {
			mine := vec.Clone(p)
			inserted.Insert(mine, int32(i))
			mine[0] = -1 // Insert copied it
		}
		check("insert with splits", inserted)
		equalContents(t, inserted, bulk)

		for name, base := range map[string]*Tree{"bulk": bulk, "assembled": assembled, "inserted": inserted} {
			old := base
			next := old.Clone()
			want := leafRows(old)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			var readErr error
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := sameRows(want); err != nil {
						readErr = err
						return
					}
				}
			}()
			// Delete from and insert into the leaves old shares: every
			// third point goes, and a copy of every fifth comes back under
			// a fresh id, landing beside its twin.
			for i, p := range pts {
				if i%3 == 0 && !next.Delete(p, int32(i)) {
					t.Fatalf("d=%d %s: point %d not found", d, name, i)
				}
				if i%5 == 0 {
					next.Insert(p, int32(len(pts)+i))
				}
			}
			close(stop)
			wg.Wait()
			if readErr != nil {
				t.Fatalf("d=%d %s: the old snapshot's blocks moved under a clone's mutations: %v", d, name, readErr)
			}
			if err := sameRows(want); err != nil {
				t.Fatalf("d=%d %s: %v", d, name, err)
			}
			check(name+" snapshot", old)
			check(name+" clone after delete with condensation", next)
			if next.Len() != len(pts)-200+120 {
				t.Fatalf("d=%d %s: clone holds %d points", d, name, next.Len())
			}
		}
	}
}
