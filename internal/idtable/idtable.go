// Package idtable implements the copy-on-write id → point table of an
// index snapshot.
//
// Record ids are dense and never reused, so the table is an append-only
// array with tombstones (a deleted id holds nil). It is stored as a
// directory of fixed-size pages: Clone copies the directory (n/PageSize
// pointers) and shares every page; the first write to a shared page copies
// that one page. A mutation of a cloned snapshot therefore costs one
// directory copy plus one page copy, independent of how the ids are
// distributed, instead of a copy of the whole table.
//
// Ownership follows the R-tree's scheme (internal/rtree/clone.go): every
// page carries the epoch of the table that may write it, Clone moves both
// sides to fresh epochs drawn from a counter shared by the clone family, so
// every page shared at the time of the clone is foreign to both.
//
// Synchronization contract: Clone and writes (Append, Clear) of tables in
// the same family must be externally serialized with each other; reads of a
// table are safe concurrently with Clone of that table and with writes to
// other tables of the family — the publish-a-snapshot pattern of the
// serving engine, and what lets a background checkpoint flatten a
// published snapshot while the next one is being built.
package idtable

import "wqrtq/internal/vec"

// PageSize is the number of ids per page. At 512 a page is 12 KiB of slice
// headers and the directory of a million-id table 16 KiB, so a clone plus
// one write moves under 30 KiB at the paper's largest scale.
const (
	pageShift = 9
	PageSize  = 1 << pageShift
)

type page struct {
	epoch uint64 // epoch of the table that may write this page
	pts   [PageSize]vec.Point
}

// Table maps ids 0 ≤ id < Len() to points.
type Table struct {
	pages  []*page
	n      int
	epoch  uint64
	family *uint64 // epoch counter shared by the clone family
}

// FromPoints builds a table holding pts under ids 0..len(pts)-1. The point
// slices are retained, the outer slice is not.
func FromPoints(pts []vec.Point) *Table {
	t := &Table{n: len(pts), pages: make([]*page, 0, (len(pts)+PageSize-1)/PageSize+1)}
	for len(pts) > 0 {
		pg := &page{}
		pts = pts[copy(pg.pts[:], pts):]
		t.pages = append(t.pages, pg)
	}
	return t
}

// Len returns the size of the id space (deleted ids included).
func (t *Table) Len() int { return t.n }

// Get returns the point stored under id, or nil when the id is out of
// range or deleted.
func (t *Table) Get(id int) vec.Point {
	if id < 0 || id >= t.n {
		return nil
	}
	return t.pages[id>>pageShift].pts[id&(PageSize-1)]
}

// Append stores p under the next id and returns that id.
func (t *Table) Append(p vec.Point) int {
	id := t.n
	if id>>pageShift == len(t.pages) {
		t.pages = append(t.pages, &page{epoch: t.epoch})
	}
	t.own(id >> pageShift).pts[id&(PageSize-1)] = p
	t.n++
	return id
}

// Clear tombstones id, which must be in range.
func (t *Table) Clear(id int) {
	t.own(id >> pageShift).pts[id&(PageSize-1)] = nil
}

// own returns page pi writable by this table, copying it first when it is
// shared with another table of the clone family.
func (t *Table) own(pi int) *page {
	pg := t.pages[pi]
	if pg.epoch != t.epoch {
		cp := *pg
		cp.epoch = t.epoch
		pg = &cp
		t.pages[pi] = pg
	}
	return pg
}

// Clone returns a copy-on-write snapshot of the table: it copies the page
// directory and shares every page. See the synchronization contract in the
// package comment.
func (t *Table) Clone() *Table {
	if t.family == nil {
		f := t.epoch
		t.family = &f
	}
	*t.family++
	t.epoch = *t.family
	*t.family++
	c := &Table{pages: make([]*page, len(t.pages), len(t.pages)+1), n: t.n, epoch: *t.family, family: t.family}
	copy(c.pages, t.pages)
	return c
}

// Flat returns the table as one freshly allocated slice indexed by id, for
// the consumers that want the whole table at once (snapshot serialization,
// whole-dataset algorithms).
func (t *Table) Flat() []vec.Point {
	out := make([]vec.Point, 0, t.n)
	for _, pg := range t.pages {
		out = append(out, pg.pts[:min(PageSize, t.n-len(out))]...)
	}
	return out
}
