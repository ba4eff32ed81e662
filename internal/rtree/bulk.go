package rtree

import (
	"cmp"
	"math"
	"slices"

	"wqrtq/internal/vec"
)

// Bulk builds a tree over the given points with Sort-Tile-Recursive (STR)
// packing, producing near-full nodes and a balanced structure in O(n log n).
// ids[i] is the record id of points[i]; if ids is nil the point index is
// used. The points are copied, in depth-first leaf order, into one backing
// array, which is sliced into the leaves' blocks (Node.Rows): a walk over
// the leaves then reads the coordinates in memory order. The input is not
// retained. A leaf a later mutation changes gets a fresh block of its own.
func Bulk(points []vec.Point, ids []int32, opts ...Options) *Tree {
	if len(points) == 0 {
		panic("rtree: Bulk requires at least one point")
	}
	t := New(len(points[0]), opts...)
	t.nodeCount = 0 // discard the initial empty leaf
	entries := make([]entry, len(points))
	for i, p := range points {
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		entries[i] = entry{rect: PointRect(p), id: id}
	}
	leaves := t.strPack(entries, 0, true)
	level := leaves
	for len(level) > 1 {
		up := make([]entry, len(level))
		for i, n := range level {
			up[i] = entry{rect: nodeRect(n), child: n}
		}
		level = t.strPack(up, 0, false)
	}
	t.root = level[0]
	t.size = len(points)
	coords := make([]float64, len(points)*t.dim)
	t.root.relocate(&coords, t.dim)
	return t
}

// relocate copies the points of n's subtree, in depth-first leaf order, to
// the front of *coords, makes each leaf's share its block, and advances
// *coords past them.
func (n *Node) relocate(coords *[]float64, dim int) {
	if !n.leaf {
		for _, e := range n.entries {
			e.child.relocate(coords, dim)
		}
		return
	}
	size := len(n.entries) * dim
	n.rows = (*coords)[:size:size]
	*coords = (*coords)[size:]
	for i := range n.entries {
		p := n.rows[i*dim : (i+1)*dim : (i+1)*dim]
		copy(p, n.entries[i].rect.Min)
		n.entries[i].rect = PointRect(p)
	}
}

// strPack tiles entries into nodes of up to maxFill entries by recursively
// sorting on successive dimensions and slicing into vertical "slabs".
func (t *Tree) strPack(entries []entry, axis int, leaf bool) []*Node {
	if len(entries) <= t.maxFill {
		n := t.newNode(leaf)
		n.entries = append(n.entries, entries...)
		for _, e := range n.entries {
			n.count += entryCount(e)
		}
		return []*Node{n}
	}
	nodesNeeded := int(math.Ceil(float64(len(entries)) / float64(t.maxFill)))
	if axis >= t.dim-1 {
		// Final axis: sort and chop into consecutive runs.
		sortEntriesByCenter(entries, axis)
		out := make([]*Node, 0, nodesNeeded)
		for start := 0; start < len(entries); start += t.maxFill {
			end := start + t.maxFill
			if end > len(entries) {
				end = len(entries)
			}
			n := t.newNode(leaf)
			n.entries = append(n.entries, entries[start:end]...)
			for _, e := range n.entries {
				n.count += entryCount(e)
			}
			out = append(out, n)
		}
		return out
	}
	// Slab count: ceil(nodesNeeded^(1/(remaining dims))).
	remaining := t.dim - axis
	slabs := int(math.Ceil(math.Pow(float64(nodesNeeded), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	sortEntriesByCenter(entries, axis)
	per := int(math.Ceil(float64(len(entries)) / float64(slabs)))
	var out []*Node
	for start := 0; start < len(entries); start += per {
		end := start + per
		if end > len(entries) {
			end = len(entries)
		}
		out = append(out, t.strPack(entries[start:end], axis+1, leaf)...)
	}
	return out
}

func sortEntriesByCenter(es []entry, axis int) {
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Compare(a.rect.Min[axis]+a.rect.Max[axis], b.rect.Min[axis]+b.rect.Max[axis])
	})
}
