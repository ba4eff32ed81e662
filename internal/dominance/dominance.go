// Package dominance implements the dominance-based point classification
// that drives MWK and MQWK: the FindIncom branch-and-bound traversal of
// Algorithm 2 (lines 20–29), which splits the dataset into the points D
// dominating the query point and the points I incomparable with it, and the
// reuse technique of §4.4, which performs a single R-tree traversal for a
// whole box of candidate query points and classifies the cached candidates
// in memory for each sample.
package dominance

import (
	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// Ref is a point with its record id.
type Ref struct {
	ID    int32
	Point vec.Point
}

// Sets is the outcome of FindIncom for one query point.
type Sets struct {
	D []Ref // points that dominate q
	I []Ref // points incomparable with q
	// NodesVisited counts expanded R-tree nodes, for cost accounting.
	NodesVisited int
}

// FindIncom classifies the indexed points against q. Points dominated by q
// (or identical to it) are irrelevant to q's rank under any weighting
// vector and are pruned, subtree-wise where possible: a subtree whose MBR
// lower corner is coordinate-wise >= q contains only such points.
func FindIncom(t *rtree.Tree, q vec.Point) Sets {
	s := Sets{NodesVisited: 1}
	walk(t.Root(), q, &s)
	return s
}

func walk(n *rtree.Node, q vec.Point, s *Sets) {
	if n.IsLeaf() {
		for i := 0; i < n.NumEntries(); i++ {
			p := n.Point(i)
			switch {
			case vec.Dominates(p, q):
				s.D = append(s.D, Ref{ID: n.PointID(i), Point: p})
			case !vec.Dominates(q, p) && !vec.Equal(p, q):
				s.I = append(s.I, Ref{ID: n.PointID(i), Point: p})
			}
		}
		return
	}
	for i := 0; i < n.NumEntries(); i++ {
		if n.EntryRect(i).DominatedBy(q) {
			// Every point inside is dominated by (or equal to) q.
			continue
		}
		s.NodesVisited++
		walk(n.Child(i), q, s)
	}
}

// Candidates returns all points not dominated by (and not equal to) q,
// in a single traversal. For any query point q' ≤ q (coordinate-wise), the
// sets D(q') and I(q') are subsets of this candidate list, because q' ≤ q
// implies that q' dominates every point q dominates. This is the cache
// behind the §4.4 reuse technique: MQWK samples its query points from the
// box [q_min, q], so one traversal with respect to q serves all samples.
func Candidates(t *rtree.Tree, q vec.Point) ([]Ref, int) {
	var out []Ref
	visited := 1
	var rec func(n *rtree.Node)
	rec = func(n *rtree.Node) {
		if n.IsLeaf() {
			for i := 0; i < n.NumEntries(); i++ {
				p := n.Point(i)
				if !vec.Dominates(q, p) && !vec.Equal(p, q) {
					out = append(out, Ref{ID: n.PointID(i), Point: p})
				}
			}
			return
		}
		for i := 0; i < n.NumEntries(); i++ {
			if n.EntryRect(i).DominatedBy(q) {
				continue
			}
			visited++
			rec(n.Child(i))
		}
	}
	rec(t.Root())
	return out, visited
}

// Classify splits cached candidates with respect to a query point q' that
// must satisfy q' ≤ q for the cache's reference point q (otherwise points
// dominated by q' could be missing). No tree access is performed.
func Classify(cands []Ref, qp vec.Point) Sets {
	var s Sets
	for _, c := range cands {
		switch {
		case vec.Dominates(c.Point, qp):
			s.D = append(s.D, c)
		case !vec.Dominates(qp, c.Point) && !vec.Equal(c.Point, qp):
			s.I = append(s.I, c)
		}
	}
	return s
}

// Rank returns the rank of the query point q under w given its dominance
// sets: every dominating point always scores no worse, every dominated
// point never does, and incomparable points are compared score-wise
// (strict inequality: ties are won by q).
func (s *Sets) Rank(w vec.Weight, q vec.Point) int {
	fq := vec.Score(w, q)
	r := 1 + len(s.D)
	for _, c := range s.I {
		if vec.Score(w, c.Point) < fq {
			r++
		}
	}
	return r
}
