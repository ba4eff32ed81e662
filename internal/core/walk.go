package core

import (
	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// collect fills the universe's image and ids with the §4.4 reuse cache of q
// — every point of t not dominated by and not equal to q — and returns the
// number of nodes expanded. It is dominance.Candidates' node walk, with the
// same DominatedBy pruning, so it meets the same nodes and points in the
// same order and counts the same visited; each survivor's coordinates go
// straight from its leaf entry into the columns.
//
// A point p survives iff it is not dominated by and not equal to q, that is
// iff !(q <= p everywhere): iff p_j < q_j on some j, for the finite points
// an index holds. A leaf whose rectangle lies below q on some coordinate
// (Max_j < q_j) therefore survives whole, without a test per point.
func (u *universe) collect(t *rtree.Tree, q vec.Point) int {
	u.all.Reset(t.Dim())
	u.ids = u.ids[:0]
	return 1 + u.collectNode(t.Root(), nil, q)
}

// collectNode walks n, whose bounding rectangle has upper corner hi (nil
// for the root, which has none), and returns the number of nodes it
// expanded below n.
func (u *universe) collectNode(n *rtree.Node, hi []float64, q vec.Point) int {
	if n.IsLeaf() {
		whole := hi != nil && belowSomewhere(hi, q)
		//wqrtq:bounded one step per leaf entry; the walk is the call's one traversal
		for i := range n.NumEntries() {
			if p := n.Point(i); whole || belowSomewhere(p, q) {
				u.all.Append(p)
				u.ids = append(u.ids, n.PointID(i))
			}
		}
		return 0
	}
	visited := 0
	//wqrtq:bounded one step per child entry; the walk is the call's one traversal
	for i := range n.NumEntries() {
		r := n.EntryRect(i)
		if r.DominatedBy(q) {
			continue
		}
		visited += 1 + u.collectNode(n.Child(i), r.Max, q)
	}
	return visited
}

// belowSomewhere reports whether p_j < q_j on some coordinate j.
func belowSomewhere(p []float64, q vec.Point) bool {
	for j, v := range q {
		if p[j] < v {
			return true
		}
	}
	return false
}
