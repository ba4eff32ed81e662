package wqrtq

import (
	"fmt"
	"sort"

	"wqrtq/internal/dominance"
	"wqrtq/internal/vec"
)

// Insert adds a point to the index and returns its id (the position it
// would have had in the NewIndex input). The point is copied: the caller
// may reuse p.
//
// Mutations are not safe concurrently with queries or other mutations on the
// same Index; queries from multiple goroutines remain safe between
// mutations. To mutate while queries are in flight, take a Clone and mutate
// that (or use Engine, which does exactly this).
func (ix *Index) Insert(p []float64) (int, error) {
	if err := ix.checkPoint(p); err != nil {
		return 0, err
	}
	id := ix.ids.Append(vec.Clone(p))
	ix.detach()
	ix.tree.Insert(p, int32(id))
	ix.sky = ix.sky.AfterInsert(ix.tree, p)
	return id, nil
}

// Delete removes the point with the given id (as returned by NewIndex
// ordering or Insert). Deleted ids are never reused; queries simply stop
// returning them. It reports whether the id was present.
func (ix *Index) Delete(id int) (bool, error) {
	if id < 0 || id >= ix.ids.Len() {
		return false, invalidArgf("id %d out of range", id)
	}
	p := ix.ids.Get(id)
	if p == nil {
		return false, nil // already deleted
	}
	ix.detach()
	if !ix.tree.Delete(p, int32(id)) {
		return false, nil
	}
	ix.ids.Clear(id)
	ix.sky = ix.sky.AfterDelete(ix.tree, int32(id))
	return true, nil
}

// detach gives ix a tree of its own, copy-on-write, when a background band
// build is still reading the current one, so that the in-place mutation
// that follows cannot race it. Queries start builds and are serialized
// with mutations, so none can start in between.
func (ix *Index) detach() {
	if ix.sky.Reading() {
		ix.tree = ix.tree.Clone()
	}
}

// Clone returns a copy-on-write snapshot of the index in O(n/512): it
// copies the id table's page directory and nothing else. The snapshot and
// the receiver share all index structure; a later Insert or Delete on
// either side copies the tree nodes and the one id page it touches first,
// so the other side is never affected. The clone starts with every band
// (with its grid) the receiver has materialized — in a band cache of its
// own, bound to its own tree, so the two sides invalidate independently.
// Clones are how mutations coexist with concurrent queries: publish a
// Clone, keep querying it from any number of goroutines, and mutate the
// other copy.
//
// Clone and mutations of indexes in the same clone family must be
// externally serialized with each other; queries need no synchronization.
func (ix *Index) Clone() *Index {
	c := &Index{
		tree:    ix.tree.Clone(),
		ids:     ix.ids.Clone(),
		skyOff:  ix.skyOff,
		bg:      ix.bg,
		kct:     ix.kct,
		rct:     ix.rct,
		cct:     ix.cct,
		cellOff: ix.cellOff,
	}
	c.sky = ix.sky.Rebind(c.tree)
	return c
}

// Epoch returns the index's mutation epoch, bumped on every Clone. Two
// indexes of the same clone family never share an epoch, which makes
// (epoch, query) a sound cache key for query results.
func (ix *Index) Epoch() uint64 { return ix.tree.Epoch() }

// NumIDs returns the size of the id space: ids 0 ≤ id < NumIDs() have been
// allocated by NewIndex or Insert (some may since have been deleted; Point
// reports nil for those). Len() counts only live points.
func (ix *Index) NumIDs() int { return ix.ids.Len() }

// CheckInvariants verifies the structural invariants of the underlying
// R-tree and the id table; it is intended for tests.
func (ix *Index) CheckInvariants() error {
	if err := ix.tree.CheckInvariants(); err != nil {
		return err
	}
	if live, _ := ix.livePoints(); len(live) != ix.tree.Len() {
		return fmt.Errorf("wqrtq: %d live ids but %d indexed points", len(live), ix.tree.Len())
	}
	return nil
}

// Point returns the point stored under id, or nil if it was deleted.
func (ix *Index) Point(id int) []float64 { return ix.ids.Get(id) }

// livePoints flattens the id table without its tombstones: the live points
// and, in step, their ids (ascending).
func (ix *Index) livePoints() ([]vec.Point, []int) {
	live := make([]vec.Point, 0, ix.tree.Len())
	ids := make([]int, 0, ix.tree.Len())
	for id, p := range ix.ids.Flat() {
		if p != nil {
			live = append(live, p)
			ids = append(ids, id)
		}
	}
	return live, ids
}

// Skyline returns the ids of the Pareto-optimal points: those dominated by
// no other indexed point. These are the only products that can rank first
// under any preference.
func (ix *Index) Skyline() []int {
	live, idx := ix.livePoints()
	sky := dominance.Skyline(live)
	out := make([]int, len(sky))
	for i, s := range sky {
		out[i] = idx[s]
	}
	sort.Ints(out)
	return out
}
