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
// A point may be of any type whose underlying type is []float64.
func Bulk[P ~[]float64](points []P, ids []int32, opts ...Options) *Tree {
	if len(points) == 0 {
		panic("rtree: Bulk requires at least one point")
	}
	t := New(len(points[0]), opts...)
	t.nodeCount = 0 // discard the initial empty leaf
	p := &strPacker{t: t, perm: make([]int32, len(points)), buf: make([]keyed, 2*len(points))}
	p.keys = func(axis int, items []int32, dst []keyed) {
		for j, i := range items {
			x := points[i][axis]
			dst[j] = keyed{key: sortKey(x + x), item: i}
		}
	}
	p.cut = func(run []int32) *Node {
		n := t.newNode(true)
		n.entries = make([]entry, len(run))
		for j, i := range run {
			id := i
			if ids != nil {
				id = ids[i]
			}
			n.entries[j] = entry{rect: PointRect(vec.Point(points[i])), id: id}
		}
		n.count = len(run)
		return n
	}
	level := p.pack(len(points))
	for len(level) > 1 {
		level = p.packNodes(level)
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

// strPacker tiles one tree level at a time. A level's items are numbered
// 0..n-1; keys writes the sort key of each of a run of items at one axis,
// the centre lo[axis]+hi[axis] of the item's rectangle, and cut makes a
// node of a run of items. The items are never moved: each axis sorts a
// range of perm, and entries exist only once cut makes a node.
type strPacker struct {
	t    *Tree
	keys func(axis int, items []int32, dst []keyed)
	cut  func(run []int32) *Node
	perm []int32
	buf  []keyed // two halves of at least n each: the sort's source and scratch
	out  []*Node
}

// keyed is an item with its sort key at the current axis.
type keyed struct {
	key  uint64
	item int32
}

// pack tiles items 0..n-1 into nodes and returns them in the order cut
// made them.
func (p *strPacker) pack(n int) []*Node {
	perm := p.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	p.out = make([]*Node, 0, (n+p.t.maxFill-1)/p.t.maxFill)
	p.tile(perm, 0)
	return p.out
}

// packNodes packs the level above nodes: each becomes an entry whose
// rectangle covers the node's entries. The covers are computed once, into
// one array (rect i is covers[2di:2d(i+1)], lower corner first), and
// copied, when a node is cut, into one block per node in entry order:
// the layout own gives a node it copies.
func (p *strPacker) packNodes(nodes []*Node) []*Node {
	d := p.t.dim
	covers := make([]float64, 2*d*len(nodes))
	for i, n := range nodes {
		r := coverRect(n.entries)
		copy(covers[2*d*i:], r.Min)
		copy(covers[2*d*i+d:], r.Max)
	}
	p.keys = func(axis int, items []int32, dst []keyed) {
		for j, i := range items {
			o := 2*d*int(i) + axis
			dst[j] = keyed{key: sortKey(covers[o] + covers[o+d]), item: i}
		}
	}
	p.cut = func(run []int32) *Node {
		n := p.t.newNode(false)
		n.entries = make([]entry, len(run))
		block := make([]float64, 2*d*len(run))
		for j, i := range run {
			r := block[2*d*j : 2*d*(j+1)]
			copy(r, covers[2*d*int(i):2*d*(int(i)+1)])
			n.entries[j] = entry{rect: Rect{Min: r[:d:d], Max: r[d : 2*d : 2*d]}, child: nodes[i]}
			n.count += nodes[i].count
		}
		return n
	}
	return p.pack(len(nodes))
}

// tile packs a run of items into nodes of up to maxFill entries by
// sorting on successive axes and slicing into vertical "slabs".
func (p *strPacker) tile(items []int32, axis int) {
	maxFill := p.t.maxFill
	if len(items) <= maxFill {
		p.out = append(p.out, p.cut(items))
		return
	}
	nodesNeeded := int(math.Ceil(float64(len(items)) / float64(maxFill)))
	p.sort(items, axis)
	if axis >= p.t.dim-1 {
		// Final axis: chop into consecutive runs.
		for start := 0; start < len(items); start += maxFill {
			p.out = append(p.out, p.cut(items[start:min(start+maxFill, len(items))]))
		}
		return
	}
	// Slab count: ceil(nodesNeeded^(1/(remaining dims))).
	remaining := p.t.dim - axis
	slabs := int(math.Ceil(math.Pow(float64(nodesNeeded), 1/float64(remaining))))
	if slabs < 1 {
		slabs = 1
	}
	per := int(math.Ceil(float64(len(items)) / float64(slabs)))
	for start := 0; start < len(items); start += per {
		p.tile(items[start:min(start+per, len(items))], axis+1)
	}
}

// radixMin is the shortest run sort radix-sorts; shorter runs go straight
// to slices.SortFunc.
const radixMin = 64

// sort reorders items by their key at axis into exactly the order
// slices.SortFunc gives when it compares the keys with cmp.Compare. Keys
// without ties have one sorted order, which a stable LSD radix sort finds.
// Tied keys are left in an order that depends on pdqsort's swaps, which
// depend only on the length and on the comparisons' results: so a run with
// a tie is sorted again by slices.SortFunc, from the order it had before,
// comparing the same keys.
func (p *strPacker) sort(items []int32, axis int) {
	n := len(items)
	src := p.buf[:n]
	p.keys(axis, items, src)
	if n >= radixMin {
		sorted := radixSort(src, p.buf[n:2*n])
		if !hasTie(sorted) {
			for j := range sorted {
				items[j] = sorted[j].item
			}
			return
		}
		p.keys(axis, items, src)
	}
	slices.SortFunc(src, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	for j := range src {
		items[j] = src[j].item
	}
}

// sortKey maps x to a key whose unsigned order is cmp.Compare's order of
// floats: every NaN is 0, below −Inf, and −0 is +0. A non-negative float
// gets its sign bit set, a negative one all its bits flipped.
func sortKey(x float64) uint64 {
	if x != x {
		return 0
	}
	if x == 0 {
		x = 0 // −0 → +0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixSort sorts a by key with a stable LSD radix sort over the key's
// eight bytes, least significant first, using b as scratch, and returns
// whichever of the two holds the result. A byte on which every key agrees
// is skipped.
func radixSort(a, b []keyed) []keyed {
	var counts [8][256]uint32
	// Unrolled: as a loop over the eight byte positions this pass made
	// BenchmarkAblationBulkLoad/STR about a quarter slower.
	for _, e := range a {
		k := e.key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := a[0].key
	for s := range counts {
		c := &counts[s]
		if int(c[byte(first>>(8*s))]) == len(a) {
			continue
		}
		pos := uint32(0)
		for i, v := range c {
			c[i] = pos
			pos += v
		}
		shift := 8 * uint(s)
		for _, e := range a {
			d := byte(e.key >> shift)
			b[c[d]] = e
			c[d]++
		}
		a, b = b, a
	}
	return a
}

// hasTie reports whether two neighbours of a sorted run have one key.
func hasTie(sorted []keyed) bool {
	for j := 1; j < len(sorted); j++ {
		if sorted[j].key == sorted[j-1].key {
			return true
		}
	}
	return false
}
