// Package rtree implements the disk-page-style R-tree used as the index
// substrate by every WQRTQ algorithm (the paper indexes every dataset with
// an R-tree whose page size is 4096 bytes, §5.1).
//
// The tree supports one-by-one insertion with the R*-tree heuristics
// (least-overlap choose-subtree and the margin-driven topological split),
// deletion with subtree reinsertion, and Sort-Tile-Recursive (STR) bulk
// loading. Node fanout is derived from the configured page size exactly as
// a disk-resident implementation would: each entry occupies 2·d·8 bytes of
// MBR plus an 8-byte child pointer / record id.
//
// Every node carries the number of data points beneath it, which the top-k
// rank-counting search (internal/topk) uses to count dominated subtrees
// without descending into them.
//
// Every leaf owns its points as one row-major block of coordinates (Rows),
// in entry order, after the node-as-one-blob layout of SQLite's r-tree: a
// scan of a leaf reads one contiguous stretch of memory instead of chasing
// one allocation per point. A leaf entry's point is a window of that
// block. Blocks are immutable once their leaf is published: a mutation that
// changes a leaf's entries gives the leaf a fresh block, so a clone that
// still shares the old leaf keeps reading the old coordinates.
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"wqrtq/internal/vec"
)

// DefaultPageSize mirrors the paper's experimental setting (§5.1).
const DefaultPageSize = 4096

// Options configures tree geometry.
type Options struct {
	// PageSize is the simulated disk page in bytes; fanout is derived from
	// it. Defaults to DefaultPageSize.
	PageSize int
}

// minFillFrac is the minimum node utilization as a fraction of the fanout
// (the classic R*-tree value).
const minFillFrac = 0.4

// Tree is an in-memory R-tree over d-dimensional points.
type Tree struct {
	dim       int
	maxFill   int
	minFill   int
	root      *Node
	size      int
	nodeCount int

	// Copy-on-write state (clone.go): epoch is read atomically by Epoch,
	// family is the counter shared across the clone family.
	epoch  uint64
	family *uint64
}

// Node is a tree node. Exported read-only accessors let the search
// algorithms in other packages traverse the structure without exposing
// mutation.
type Node struct {
	leaf    bool
	entries []entry
	// rows is a leaf's block: entry i's point is rows[i*d:(i+1)*d], and
	// the entry's degenerate rectangle aliases exactly that window. nil
	// for internal nodes.
	rows  []float64
	count int    // data points in this subtree
	epoch uint64 // epoch of the tree that owns (may mutate) this node
}

type entry struct {
	rect  Rect
	child *Node // nil for leaf entries
	id    int32 // valid for leaf entries
}

// Node layout of the simulated page: a 16-byte header, then per entry 2·d
// float64 for the MBR plus an 8-byte pointer/id.
const nodeHeaderBytes = 16

func entryBytes(dim int) int { return 16*dim + 8 }

// PageSizeFor returns the smallest page size whose derived fanout at dim is
// fanout: the inverse of New's derivation, for trees whose fanout is fixed
// as a number of entries rather than by a simulated disk page. Fanouts
// below New's floor of 4 still get 4.
func PageSizeFor(dim, fanout int) int {
	return nodeHeaderBytes + fanout*entryBytes(dim)
}

// New creates an empty tree for dim-dimensional points.
func New(dim int, opts ...Options) *Tree {
	if dim <= 0 {
		panic("rtree: dimension must be positive")
	}
	pageSize := DefaultPageSize
	if len(opts) > 0 && opts[0].PageSize > 0 {
		pageSize = opts[0].PageSize
	}
	maxFill := (pageSize - nodeHeaderBytes) / entryBytes(dim)
	if maxFill < 4 {
		maxFill = 4
	}
	minFill := int(float64(maxFill) * minFillFrac)
	if minFill < 2 {
		minFill = 2
	}
	t := &Tree{dim: dim, maxFill: maxFill, minFill: minFill}
	t.root = t.newNode(true)
	return t
}

func (t *Tree) newNode(leaf bool) *Node {
	t.nodeCount++
	return &Node{leaf: leaf, epoch: t.epoch}
}

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// NodeCount returns |RT|, the number of nodes, used in the paper's
// complexity statements (Theorems 1–3).
func (t *Tree) NodeCount() int { return t.nodeCount }

// MaxEntries returns the node fanout derived from the page size.
func (t *Tree) MaxEntries() int { return t.maxFill }

// MinEntries returns the minimum entries per non-root node.
func (t *Tree) MinEntries() int { return t.minFill }

// Root returns the root node for read-only traversal.
func (t *Tree) Root() *Node { return t.root }

// IsLeaf reports whether the node stores data points.
func (n *Node) IsLeaf() bool { return n.leaf }

// NumEntries returns the number of entries in the node.
func (n *Node) NumEntries() int { return len(n.entries) }

// EntryRect returns the bounding rectangle of entry i. The returned slices
// must not be modified.
func (n *Node) EntryRect(i int) Rect { return n.entries[i].rect }

// Child returns the i-th child of an internal node.
func (n *Node) Child(i int) *Node { return n.entries[i].child }

// PointID returns the record id of leaf entry i.
func (n *Node) PointID(i int) int32 { return n.entries[i].id }

// Point returns the point stored in leaf entry i (aliasing the tree's
// storage; callers must not modify it).
func (n *Node) Point(i int) vec.Point { return vec.Point(n.entries[i].rect.Min) }

// Rows returns a leaf's coordinate block, row-major in entry order: entry
// i's point is Rows()[i*d:(i+1)*d] for the tree's dimensionality d. It is
// nil for an internal node. The block is shared and never written once
// its leaf is published; callers must not modify it.
func (n *Node) Rows() []float64 { return n.rows }

// Count returns the number of data points in the node's subtree.
func (n *Node) Count() int { return n.count }

// Insert adds a point with the given record id. The point is copied into
// its leaf's block: the caller may reuse p.
func (t *Tree) Insert(p vec.Point, id int32) {
	if len(p) != t.dim {
		panic(fmt.Sprintf("rtree: point dimension %d, want %d", len(p), t.dim))
	}
	n, right := t.insertEntry(entry{rect: PointRect(p), id: id})
	t.reblock(n)
	if right != nil {
		t.reblock(right)
	}
	t.size++
}

// insertEntry inserts a point entry into the leaf chooseLeaf picks and
// returns that leaf and, when it overflowed, the leaf split off from it
// (nil otherwise). Both still point into their old blocks, or e's: the
// caller gives them fresh ones (reblock) once its last insert is done.
func (t *Tree) insertEntry(e entry) (n, right *Node) {
	n, path := t.chooseLeaf(e.rect)
	n.entries = append(n.entries, e)
	n.count++
	for _, p := range path {
		p.count++
	}
	if len(n.entries) > t.maxFill {
		right = t.splitUpward(n, path)
	}
	return n, right
}

// reblock gives leaf n a fresh block holding its entries' points, in entry
// order, and points the entries at it. The old block is left as it was:
// a clone may still read it.
func (t *Tree) reblock(n *Node) {
	d := t.dim
	rows := make([]float64, len(n.entries)*d)
	for i := range n.entries {
		p := rows[i*d : (i+1)*d : (i+1)*d]
		copy(p, n.entries[i].rect.Min)
		n.entries[i].rect = PointRect(p)
	}
	n.rows = rows
}

func entryCount(e entry) int {
	if e.child == nil {
		return 1
	}
	return e.child.count
}

// chooseLeaf descends to the leaf best suited for the rectangle, returning
// the leaf and the path of ancestors (root first). Every node on the path is
// owned (copied on write if shared with a clone) before it is mutated.
func (t *Tree) chooseLeaf(r Rect) (*Node, []*Node) {
	var path []*Node
	t.root = t.own(t.root)
	n := t.root
	for !n.leaf {
		path = append(path, n)
		best := t.chooseSubtree(n, r)
		child := t.own(n.entries[best].child)
		n.entries[best].child = child
		n.entries[best].rect.extend(r)
		n = child
	}
	return n, path
}

// chooseSubtree applies the R*-tree heuristic: for nodes pointing at leaves
// pick the entry with least overlap enlargement; otherwise least area
// enlargement. Ties break toward smaller area.
func (t *Tree) chooseSubtree(n *Node, r Rect) int {
	childrenAreLeaves := n.entries[0].child.leaf
	var grown Rect
	if childrenAreLeaves {
		buf := make([]float64, 2*t.dim)
		grown = Rect{Min: buf[:t.dim:t.dim], Max: buf[t.dim:]}
	}
	best := 0
	bestOverlap := math.Inf(1)
	bestEnl := math.Inf(1)
	bestArea := math.Inf(1)
	for i := range n.entries {
		er := n.entries[i].rect
		area := er.Area()
		enl := er.EnlargedArea(r) - area
		overlap := 0.0
		if childrenAreLeaves {
			copy(grown.Min, er.Min)
			copy(grown.Max, er.Max)
			grown.extend(r)
			for j := range n.entries {
				if j == i {
					continue
				}
				overlap += grown.OverlapArea(n.entries[j].rect) - er.OverlapArea(n.entries[j].rect)
			}
		}
		if overlap < bestOverlap ||
			(overlap == bestOverlap && enl < bestEnl) ||
			(overlap == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, overlap, enl, area
		}
	}
	return best
}

// splitUpward splits an overfull node and propagates along the stored
// path. It returns the node split off from n itself.
func (t *Tree) splitUpward(n *Node, path []*Node) (split *Node) {
	for {
		left, right := t.split(n)
		if split == nil {
			split = right
		}
		if len(path) == 0 {
			// Grow a new root.
			root := t.newNode(false)
			root.entries = append(root.entries,
				entry{rect: nodeRect(left), child: left},
				entry{rect: nodeRect(right), child: right},
			)
			root.count = left.count + right.count
			t.root = root
			return split
		}
		parent := path[len(path)-1]
		path = path[:len(path)-1]
		// Replace n's entry with the two halves.
		idx := -1
		for i := range parent.entries {
			if parent.entries[i].child == n {
				idx = i
				break
			}
		}
		parent.entries[idx] = entry{rect: nodeRect(left), child: left}
		parent.entries = append(parent.entries, entry{rect: nodeRect(right), child: right})
		if len(parent.entries) <= t.maxFill {
			return split
		}
		n = parent
	}
}

// split performs the R*-tree topological split: choose the axis minimizing
// the margin sum over all valid distributions, then the distribution with
// least overlap (ties: least combined area). The receiver is reused as the
// left node; a fresh right node is returned.
func (t *Tree) split(n *Node) (*Node, *Node) {
	entries := n.entries
	m := t.minFill
	type dist struct {
		axis, k int
		byUpper bool
		overlap float64
		areaSum float64
	}
	cv := newSplitCovers(t.dim, len(entries))
	bestAxis, bestAxisMargin := -1, math.Inf(1)
	// Pass 1: choose split axis by minimum total margin.
	for axis := 0; axis < t.dim; axis++ {
		for _, byUpper := range []bool{false, true} {
			sortEntries(entries, axis, byUpper)
			cv.fill(entries)
			margin := 0.0
			for k := m; k <= len(entries)-m; k++ {
				margin += cv.left(k).Margin() + cv.right(k).Margin()
			}
			if margin < bestAxisMargin {
				bestAxisMargin = margin
				bestAxis = axis
			}
		}
	}
	// Pass 2: on the chosen axis pick the best distribution.
	best := dist{overlap: math.Inf(1), areaSum: math.Inf(1)}
	for _, byUpper := range []bool{false, true} {
		sortEntries(entries, bestAxis, byUpper)
		cv.fill(entries)
		for k := m; k <= len(entries)-m; k++ {
			lr, rr := cv.left(k), cv.right(k)
			ov := lr.OverlapArea(rr)
			as := lr.Area() + rr.Area()
			if ov < best.overlap || (ov == best.overlap && as < best.areaSum) {
				best = dist{axis: bestAxis, k: k, byUpper: byUpper, overlap: ov, areaSum: as}
			}
		}
	}
	sortEntries(entries, best.axis, best.byUpper)
	right := t.newNode(n.leaf)
	right.entries = append(right.entries, entries[best.k:]...)
	n.entries = entries[:best.k:best.k]
	n.count = 0
	for _, e := range n.entries {
		n.count += entryCount(e)
	}
	right.count = 0
	for _, e := range right.entries {
		right.count += entryCount(e)
	}
	return n, right
}

// splitCovers holds, for one order of a split's entries, the cover of
// every prefix and of every suffix, so each candidate distribution reads
// its two rectangles instead of rebuilding them. The sweeps make
// coverRect's comparisons, so every cover is coverRect's rectangle (a
// suffix's may differ in the sign of a zero, which no volume or margin
// compared here tells apart).
type splitCovers struct {
	d        int
	pre, suf []float64 // 2d floats per prefix or suffix: Min, then Max
}

func newSplitCovers(d, n int) *splitCovers {
	return &splitCovers{d: d, pre: make([]float64, 2*d*(n+1)), suf: make([]float64, 2*d*(n+1))}
}

// fill sweeps es once each way: left(k) then covers es[:k] and right(k)
// covers es[k:], for 0 < k < len(es).
func (c *splitCovers) fill(es []entry) {
	n := len(es)
	for k := 1; k <= n; k++ {
		c.cover(c.pre, k, k-1, k == 1, es[k-1].rect)
	}
	for k := n - 1; k >= 0; k-- {
		c.cover(c.suf, k, k+1, k == n-1, es[k].rect)
	}
}

// cover sets rectangle at of buf to rectangle from extended by r, or to r
// itself when first.
func (c *splitCovers) cover(buf []float64, at, from int, first bool, r Rect) {
	dst := c.rect(buf, at)
	if first {
		copy(dst.Min, r.Min)
		copy(dst.Max, r.Max)
		return
	}
	src := c.rect(buf, from)
	copy(dst.Min, src.Min)
	copy(dst.Max, src.Max)
	dst.extend(r)
}

func (c *splitCovers) rect(buf []float64, k int) Rect {
	o, d := 2*c.d*k, c.d
	return Rect{Min: buf[o : o+d : o+d], Max: buf[o+d : o+2*d : o+2*d]}
}

func (c *splitCovers) left(k int) Rect  { return c.rect(c.pre, k) }
func (c *splitCovers) right(k int) Rect { return c.rect(c.suf, k) }

func sortEntries(es []entry, axis int, byUpper bool) {
	if byUpper {
		slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.rect.Max[axis], b.rect.Max[axis]) })
		return
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.rect.Min[axis], b.rect.Min[axis]) })
}

func coverRect(es []entry) Rect {
	r := CloneRect(es[0].rect)
	for _, e := range es[1:] {
		r.extend(e.rect)
	}
	return r
}

func nodeRect(n *Node) Rect {
	return coverRect(n.entries)
}

// Delete removes one entry matching (p, id). It reports whether an entry was
// found. Underfull nodes are dissolved and their points reinserted.
func (t *Tree) Delete(p vec.Point, id int32) bool {
	steps, ok := findLeaf(t.root, nil, p, id)
	if !ok {
		return false
	}
	// Own (copy on write) exactly the nodes the removal and condensation
	// mutate: the root-to-leaf path just located.
	t.root = t.own(t.root)
	leaf := t.root
	path := make([]*Node, 0, len(steps))
	for _, i := range steps {
		path = append(path, leaf)
		child := t.own(leaf.entries[i].child)
		leaf.entries[i].child = child
		leaf = child
	}
	for i := range leaf.entries {
		if leaf.entries[i].id == id && vec.Equal(vec.Point(leaf.entries[i].rect.Min), p) {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	leaf.count--
	for _, a := range path {
		a.count--
	}
	t.size--
	var orphans []entry
	t.condense(leaf, path, &orphans)
	// Root adjustments.
	if !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.nodeCount--
	}
	if !t.root.leaf && len(t.root.entries) == 0 {
		t.root = t.newNode(true)
		t.nodeCount--
	}
	// One fresh block per changed leaf, however many orphans it took.
	stale := []*Node{leaf}
	for _, e := range orphans {
		n, right := t.insertEntry(e)
		for _, c := range [2]*Node{n, right} {
			if c != nil && !slices.Contains(stale, c) {
				stale = append(stale, c)
			}
		}
	}
	for _, n := range stale {
		t.reblock(n)
	}
	return true
}

// findLeaf locates the leaf containing (p, id) without touching the tree:
// it returns the entry index taken at each internal level, root first.
// Several subtrees may contain p, so the search backtracks out of dead
// ends; keeping it read-only is what lets Delete copy only the one path
// that leads to the entry, not every branch the search looked into.
func findLeaf(n *Node, steps []int, p vec.Point, id int32) ([]int, bool) {
	if n.leaf {
		for i := range n.entries {
			if n.entries[i].id == id && vec.Equal(vec.Point(n.entries[i].rect.Min), p) {
				return steps, true
			}
		}
		return nil, false
	}
	for i := range n.entries {
		if !n.entries[i].rect.ContainsPoint(p) {
			continue
		}
		if found, ok := findLeaf(n.entries[i].child, append(steps, i), p, id); ok {
			return found, true
		}
	}
	return nil, false
}

// condense removes underfull nodes bottom-up, collecting their points for
// reinsertion, and tightens ancestor MBRs.
func (t *Tree) condense(n *Node, path []*Node, orphans *[]entry) {
	for level := len(path) - 1; level >= 0; level-- {
		parent := path[level]
		idx := -1
		for i := range parent.entries {
			if parent.entries[i].child == n {
				idx = i
				break
			}
		}
		if len(n.entries) < t.minFill {
			// Dissolve n: collect its points, remove from parent.
			collectPoints(n, orphans)
			removed := n.count
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			parent.count -= removed
			for _, a := range path[:level] {
				a.count -= removed
			}
			t.nodeCount -= countNodes(n)
		} else {
			parent.entries[idx].rect = nodeRect(n)
		}
		n = parent
	}
}

func collectPoints(n *Node, out *[]entry) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for i := range n.entries {
		collectPoints(n.entries[i].child, out)
	}
}

func countNodes(n *Node) int {
	if n.leaf {
		return 1
	}
	c := 1
	for i := range n.entries {
		c += countNodes(n.entries[i].child)
	}
	return c
}

// Visit walks the tree depth-first. descend is called on every internal
// entry rectangle and controls whether the subtree is entered; visit is
// called for every data point reached.
func (t *Tree) Visit(descend func(Rect, *Node) bool, visit func(id int32, p vec.Point)) {
	visitNode(t.root, descend, visit)
}

func visitNode(n *Node, descend func(Rect, *Node) bool, visit func(int32, vec.Point)) {
	if n.leaf {
		for i := range n.entries {
			visit(n.entries[i].id, vec.Point(n.entries[i].rect.Min))
		}
		return
	}
	for i := range n.entries {
		child := n.entries[i].child
		if descend == nil || descend(n.entries[i].rect, child) {
			visitNode(child, descend, visit)
		}
	}
}
