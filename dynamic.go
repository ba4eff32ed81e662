package wqrtq

import (
	"fmt"
	"sort"

	"wqrtq/internal/cellindex"
	"wqrtq/internal/dominance"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

// Insert adds a point to the index and returns its id (the position it
// would have had in the NewIndex input). The point slice is retained.
//
// Mutations are not safe concurrently with queries or other mutations on the
// same Index; queries from multiple goroutines remain safe between
// mutations. To mutate while queries are in flight, take a Clone and mutate
// that (or use Engine, which does exactly this).
func (ix *Index) Insert(p []float64) (int, error) {
	if err := ix.checkPoint(p); err != nil {
		return 0, err
	}
	ix.ownPoints()
	id := len(ix.points)
	ix.points = append(ix.points, vec.Point(p))
	ix.tree.Insert(p, int32(id))
	ix.resetSkyband()
	ix.resetCellIndex()
	return id, nil
}

// Delete removes the point with the given id (as returned by NewIndex
// ordering or Insert). Deleted ids are never reused; queries simply stop
// returning them. It reports whether the id was present.
func (ix *Index) Delete(id int) (bool, error) {
	if id < 0 || id >= len(ix.points) {
		return false, invalidArgf("id %d out of range", id)
	}
	p := ix.points[id]
	if p == nil {
		return false, nil // already deleted
	}
	if !ix.tree.Delete(p, int32(id)) {
		return false, nil
	}
	ix.ownPoints()
	ix.points[id] = nil
	ix.resetSkyband()
	ix.resetCellIndex()
	return true, nil
}

// Clone returns a copy-on-write snapshot of the index in O(1). The snapshot
// and the receiver share all index structure; a later Insert or Delete on
// either side copies the nodes it touches first, so the other side is never
// affected. Clones are how mutations coexist with concurrent queries:
// publish a Clone, keep querying it from any number of goroutines, and
// mutate the other copy.
//
// Clone and mutations of indexes in the same clone family must be
// externally serialized with each other; queries need no synchronization.
func (ix *Index) Clone() *Index {
	c := &Index{
		tree:      ix.tree.Clone(),
		points:    ix.points[:len(ix.points):len(ix.points)],
		shared:    true,
		skyOff:    ix.skyOff,
		kct:       ix.kct,
		kernelOff: ix.kernelOff,
		cct:       ix.cct,
		cellOff:   ix.cellOff,
	}
	c.sky = skyband.NewCache(c.tree, ix.skyCounters())
	c.cells = cellindex.NewCache(c.sky, c.Dim(), c.cct)
	ix.shared = true
	return c
}

// Epoch returns the index's mutation epoch, bumped on every Clone. Two
// indexes of the same clone family never share an epoch, which makes
// (epoch, query) a sound cache key for query results.
func (ix *Index) Epoch() uint64 { return ix.tree.Epoch() }

// NumIDs returns the size of the id space: ids 0 ≤ id < NumIDs() have been
// allocated by NewIndex or Insert (some may since have been deleted; Point
// reports nil for those). Len() counts only live points.
func (ix *Index) NumIDs() int { return len(ix.points) }

// CheckInvariants verifies the structural invariants of the underlying
// R-tree and the id table; it is intended for tests.
func (ix *Index) CheckInvariants() error {
	if err := ix.tree.CheckInvariants(); err != nil {
		return err
	}
	live := 0
	for _, p := range ix.points {
		if p != nil {
			live++
		}
	}
	if live != ix.tree.Len() {
		return fmt.Errorf("wqrtq: %d live ids but %d indexed points", live, ix.tree.Len())
	}
	return nil
}

// ownPoints gives the index a private copy of the id table when its backing
// array is shared with a clone, so in-place writes cannot leak across
// snapshots.
func (ix *Index) ownPoints() {
	if !ix.shared {
		return
	}
	pts := make([]vec.Point, len(ix.points), len(ix.points)+1)
	copy(pts, ix.points)
	ix.points = pts
	ix.shared = false
}

// Point returns the point stored under id, or nil if it was deleted.
func (ix *Index) Point(id int) []float64 {
	if id < 0 || id >= len(ix.points) {
		return nil
	}
	return ix.points[id]
}

// Skyline returns the ids of the Pareto-optimal points: those dominated by
// no other indexed point. These are the only products that can rank first
// under any preference.
func (ix *Index) Skyline() []int {
	live := make([]vec.Point, 0, len(ix.points))
	idx := make([]int, 0, len(ix.points))
	for i, p := range ix.points {
		if p != nil {
			live = append(live, p)
			idx = append(idx, i)
		}
	}
	sky := dominance.Skyline(live)
	out := make([]int, len(sky))
	for i, s := range sky {
		out[i] = idx[s]
	}
	sort.Ints(out)
	return out
}
