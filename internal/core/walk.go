package core

import (
	"wqrtq/internal/rtree"
)

// collect fills the universe's image with the §4.4 reuse cache of its
// reference point q = u.hi — every point of t not dominated by and not
// equal to q — and returns the number of nodes expanded. It is
// dominance.Candidates' node walk, with the same DominatedBy pruning, so it
// meets the same nodes and points in the same order and counts the same
// visited. The sample box [u.lo, u.hi] must be set (setBox): each leaf step
// also classifies its survivors against it, filling maybe, le and leIDs
// (see universe) while the points are in cache.
func (u *universe) collect(t *rtree.Tree) int {
	u.all.Reset(t.Dim())
	u.maybe, u.le, u.leIDs = u.maybe[:0], u.le[:0], u.leIDs[:0]
	return 1 + u.collectNode(t.Root())
}

// collectNode walks n and returns the number of nodes it expanded below n.
func (u *universe) collectNode(n *rtree.Node) int {
	if n.IsLeaf() {
		u.leafStep(n)
		return 0
	}
	visited := 0
	//wqrtq:bounded one step per child entry; the walk is the call's one traversal
	for i := range n.NumEntries() {
		r := n.EntryRect(i)
		if r.DominatedBy(u.hi) {
			continue
		}
		visited += 1 + u.collectNode(n.Child(i))
	}
	return visited
}

// leafStep appends leaf n's survivors to the universe: the points p with
// p_j < q_j on some coordinate j — iff p is not dominated by and not equal
// to q, for the finite points an index holds. The kernel compacts them
// from the leaf's block straight into the columns and classifies each
// against the sample box (kernel.Coords.AppendBelow); the classes then
// extend maybe and le the same way, each entry written at the next free
// slot and its cursor advanced by a 0/1 flag — in the leaves that hold a
// box point at all. The survivors that are <= q everywhere get their
// record ids, which only the trim reads; there are fewer than k0 of them.
func (u *universe) leafStep(n *rtree.Node) {
	m := n.NumEntries()
	if m == 0 {
		return
	}
	if cap(u.cls) < m {
		u.cls = make([]uint8, m)
	}
	cls := u.cls[:m]
	w := int32(u.all.Len())
	if u.all.AppendBelow(n.Rows(), u.lo, u.hi, cls)&6 == 0 {
		return
	}
	nm, nl, nl0 := len(u.maybe), len(u.le), len(u.le)
	maybe, le, leAt := grow32(u.maybe, m), grow32(u.le, m), grow32(u.leIDs, m)
	//wqrtq:bounded one step per leaf entry; the walk is the call's one traversal
	for i, c := range cls {
		maybe[nm] = w
		le[nl], leAt[nl] = int32(nm), int32(i)
		isLe, isGe := int(c>>1&1), int(c>>2&1)
		w += int32(c & 1)
		nl += isLe
		nm += isLe | isGe
	}
	u.maybe, u.le, u.leIDs = maybe[:nm], le[:nl], leAt[:nl]
	// leIDs holds each new le point's entry index so far.
	for i := nl0; i < nl; i++ {
		u.leIDs[i] = n.PointID(int(u.leIDs[i]))
	}
}

// grow32 returns s with room for m more elements, lengthened to
// len(s)+m; the new elements' values are unspecified.
func grow32(s []int32, m int) []int32 {
	if n := len(s) + m; n <= cap(s) {
		return s[:n]
	}
	return append(s, make([]int32, m)...)
}
