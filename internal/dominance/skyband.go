package dominance

import (
	"math/bits"
	"slices"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// BandPoint is one member of a k-skyband as KSkybandNaive reports it: the
// position of the point in the input slice and its exact dominance count
// (the number of input points dominating it, always < k for a member).
type BandPoint struct {
	Index int
	Count int
}

// Member is one member of a k-skyband as KSkyband reports it: the record id
// and point of a tree entry (the point aliases the tree's storage) and its
// exact dominance count, always < k.
type Member struct {
	ID    int32
	Point vec.Point
	Count int
}

// KSkyband returns the k-skyband of the points t indexes: every point
// dominated by fewer than k other points, with its exact dominance count,
// in the tree's depth-first leaf order (Tree.Visit's), and true. The
// 1-skyband is the skyline.
//
// Why this set matters (Vlachou et al., "Reverse top-k queries"): under any
// weighting vector w (non-negative, summing to 1) a point p with dominance
// count >= k has at least k points scoring no worse than it under w, and the
// k smallest scores of the dataset are always achieved within the k-skyband.
// Every top-k result, every top k-th score, and every strict-beat count
// below k is therefore answerable from the k-skyband alone — the candidate
// set behind the sub-index in internal/skyband.
//
// The build is a best-first walk over the tree in the manner of BBS
// (Papadias et al., branch-and-bound skyline). Entries leave a heap in
// ascending coordinate sum of their lower corner; on equal sums nodes come
// first, then the lexicographically smaller corner, then the smaller id.
// Rounding is monotone, so a dominator's sum is never larger than its
// victim's, and on an equal sum its corner is lexicographically smaller:
// every dominator of a point, and every node that can hold one, leaves the
// heap before the point does. Each point counts its dominators among the
// members kept so far, stopping at k, and is kept below k. The count is
// exact for members: a dominator of a member has fewer dominators still, so
// it is a member and was kept first. A point with k or more dominators is
// never kept: each of its dominators was either kept or turned away by k
// kept members that dominate the point too. A node is skipped once k kept
// members dominate its lower corner, for they dominate every point inside.
//
// The counts go through a range-encoded bitmap index over the kept members
// (bandIndex), so a point that k members dominate is usually turned away
// after a few words, and a member pays a few AND instructions per 64 kept
// members rather than one dominance test per kept member.
//
// It gives up once the band is known to hold more than limit points
// (limit >= t.Len() never does): it then returns the limit+1 members found
// so far — every one a true member with its exact count, so the partial
// result is evidence that the band exceeds limit — and false.
// internal/skyband uses that for bands only worth having while they stay
// small. The points must be finite.
func KSkyband(t *rtree.Tree, k, limit int) ([]Member, bool) {
	if t.Len() == 0 || k <= 0 {
		return nil, true
	}
	ix := newBandIndex(t.Root(), t.Dim())
	var h bandHeap
	h.expand(t.Root(), 0)
	var kept []bandEntry
	for len(h) > 0 {
		e := h.pop()
		cnt := ix.dominators(e.lo, k)
		if cnt >= k {
			continue
		}
		if e.node != nil {
			h.expand(e.node, e.pos)
			continue
		}
		ix.add(e.lo)
		e.cnt = cnt
		kept = append(kept, e)
		if len(kept) > limit {
			break
		}
	}
	slices.SortFunc(kept, func(a, b bandEntry) int { return a.pos - b.pos })
	out := make([]Member, len(kept))
	for i, e := range kept {
		out[i] = Member{ID: e.id, Point: e.lo, Count: e.cnt}
	}
	return out, len(out) <= limit
}

// bandEntry is one heap entry of KSkyband's walk: a node (node set) or a
// point, with its lower corner (the point itself) and that corner's
// coordinate sum. pos is the depth-first leaf position of the entry's first
// point, which orders the result; cnt is a kept point's dominance count.
type bandEntry struct {
	sum  float64
	lo   vec.Point
	node *rtree.Node
	id   int32
	cnt  int
	pos  int
}

// before is the walk order: ascending sum; on equal sums nodes first, then
// the lexicographically smaller corner, then the smaller id (position, for
// nodes).
func (a *bandEntry) before(b *bandEntry) bool {
	switch {
	case a.sum < b.sum:
		return true
	case b.sum < a.sum:
		return false
	case (a.node == nil) != (b.node == nil):
		return a.node != nil
	}
	for j, v := range a.lo {
		switch {
		case v < b.lo[j]:
			return true
		case b.lo[j] < v:
			return false
		}
	}
	if a.node != nil {
		return a.pos < b.pos
	}
	return a.id < b.id
}

// bandHeap is a binary min-heap of walk entries under before.
type bandHeap []bandEntry

// expand pushes the entries of n, whose first point sits at leaf position
// pos.
func (h *bandHeap) expand(n *rtree.Node, pos int) {
	for i := 0; i < n.NumEntries(); i++ {
		if n.IsLeaf() {
			p := n.Point(i)
			h.push(bandEntry{sum: coordSum(p), lo: p, id: n.PointID(i), pos: pos + i})
			continue
		}
		c, lo := n.Child(i), n.EntryRect(i).Min
		h.push(bandEntry{sum: coordSum(lo), lo: lo, node: c, pos: pos})
		pos += c.Count()
	}
}

func (h *bandHeap) push(e bandEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s[i].before(&s[up]) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

func (h *bandHeap) pop() bandEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < len(s) && s[l].before(&s[m]) {
			m = l
		}
		if r := l + 1; r < len(s) && s[r].before(&s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// coordSum adds p's coordinates in index order; every sum the walk compares
// is taken the same way, so p <= p' coordinate-wise implies
// coordSum(p) <= coordSum(p').
func coordSum(p vec.Point) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}

// bandBuckets is the resolution of the dominance index: each coordinate of
// the root's bounding box is cut into bandBuckets equal buckets.
const bandBuckets = 64

// bandIndex is the range-encoded bitmap index over the members KSkyband has
// kept, in the order kept. Bucket t of coordinate j covers 1/bandBuckets of
// the root's extent on j. Members are stored in blocks of 64, one block per
// word of membership bits: block w holds, for coordinate j, bandBuckets+1
// words, of which word t+1 has the bit of each of the block's members whose
// coordinate j falls in bucket t or below, and word 0 none.
//
// A member in a lower bucket than p on every coordinate is below p on every
// coordinate, so it dominates p for sure; a member in a higher bucket than p
// on some coordinate is above p there and cannot dominate it. So the AND
// over p's coordinates of the words at p's buckets (less one) gives the sure
// dominators, the AND at p's buckets the possible ones, and only the
// possible-but-not-sure members need vec.Dominates.
type bandIndex struct {
	lo, scale []float64
	members   []vec.Point
	le        []uint64
	// at holds, during dominators, the offset of the candidate's bucket
	// word for each coordinate within a block.
	at []int
}

// newBandIndex returns an empty index over the bounding box of root's
// entries, in d dimensions.
func newBandIndex(root *rtree.Node, d int) *bandIndex {
	x := &bandIndex{lo: make([]float64, d), scale: make([]float64, d), at: make([]int, d)}
	hi := make([]float64, d)
	for i := 0; i < root.NumEntries(); i++ {
		r := root.EntryRect(i)
		for j := range d {
			if i == 0 || r.Min[j] < x.lo[j] {
				x.lo[j] = r.Min[j]
			}
			if i == 0 || r.Max[j] > hi[j] {
				hi[j] = r.Max[j]
			}
		}
	}
	for j := range d {
		x.scale[j] = bandBuckets / (hi[j] - x.lo[j])
	}
	return x
}

// bucket maps coordinate value v to its bucket on coordinate j: subtract,
// scale, clamp, truncate, as core's universe does. Each step is monotone
// under IEEE rounding — a zero-width coordinate's infinite scale included,
// whose NaN at v = lo clamps to 0 — so v <= v' implies
// bucket(v) <= bucket(v'): a larger bucket proves a strictly larger value.
func (x *bandIndex) bucket(j int, v float64) int {
	f := (v - x.lo[j]) * x.scale[j]
	switch {
	case !(f > 0):
		return 0
	case f >= bandBuckets-1:
		return bandBuckets - 1
	}
	return int(f)
}

// add appends p to the index.
func (x *bandIndex) add(p vec.Point) {
	const rows = bandBuckets + 1
	m := len(x.members)
	stride := len(x.lo) * rows
	if m&63 == 0 {
		x.le = append(x.le, make([]uint64, stride)...)
	}
	blk := x.le[len(x.le)-stride:]
	bit := uint64(1) << (m & 63)
	for j, v := range p {
		row := blk[j*rows : (j+1)*rows]
		for t := x.bucket(j, v) + 1; t < rows; t++ {
			row[t] |= bit
		}
	}
	x.members = append(x.members, p)
}

// dominators counts the indexed members that dominate p, stopping at k.
func (x *bandIndex) dominators(p vec.Point, k int) int {
	const rows = bandBuckets + 1
	for j, v := range p {
		x.at[j] = j*rows + x.bucket(j, v)
	}
	stride := len(x.lo) * rows
	cnt := 0
	for w, base := 0, 0; base < len(x.le); w, base = w+1, base+stride {
		blk := x.le[base : base+stride]
		sure, maybe := ^uint64(0), ^uint64(0)
		for _, a := range x.at {
			sure &= blk[a]
			maybe &= blk[a+1]
		}
		cnt += bits.OnesCount64(sure)
		for amb := maybe &^ sure; amb != 0 && cnt < k; amb &= amb - 1 {
			if vec.Dominates(x.members[w<<6|bits.TrailingZeros64(amb)], p) {
				cnt++
			}
		}
		if cnt >= k {
			return cnt
		}
	}
	return cnt
}

// KSkybandNaive is the quadratic reference implementation for tests: it
// counts every point's dominators by full scan.
func KSkybandNaive(points []vec.Point, k int) []BandPoint {
	if k <= 0 {
		return nil
	}
	var out []BandPoint
	for i, p := range points {
		cnt := 0
		for j, o := range points {
			if i != j && vec.Dominates(o, p) {
				cnt++
			}
		}
		if cnt < k {
			out = append(out, BandPoint{Index: i, Count: cnt})
		}
	}
	return out
}
