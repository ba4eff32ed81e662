package dominance

import "wqrtq/internal/vec"

// ClassifyInto is Classify with caller-owned scratch: the candidate split is
// written into s.D and s.I, reusing their backing arrays. It computes
// exactly what Classify computes; the hot sampling loops of internal/core
// use it to classify one cached candidate list against hundreds of sample
// query points without re-growing two slices each time. The same q' <= q
// precondition as Classify applies (q being the cache's reference point).
//
// Dimensions 2–4 run unrolled bodies that evaluate the coordinate-wise
// <=/>= conjunctions in one pass: with le = (p <= qp everywhere) and
// ge = (p >= qp everywhere), p dominates qp iff le && !ge (le && ge means
// equality), p is dominated-or-equal iff ge, and the incomparable case is
// exactly !le && !ge — the same booleans the Dominates/Equal chain of the
// generic body computes, without re-walking the coordinates three times.
func ClassifyInto(cands []Ref, qp vec.Point, s *Sets) {
	s.D = s.D[:0]
	s.I = s.I[:0]
	s.NodesVisited = 0
	switch len(qp) {
	case 2:
		q0, q1 := qp[0], qp[1]
		for _, c := range cands {
			p := c.Point
			p0, p1 := p[0], p[1]
			le := p0 <= q0 && p1 <= q1
			ge := p0 >= q0 && p1 >= q1
			if le {
				if !ge {
					s.D = append(s.D, c)
				}
			} else if !ge {
				s.I = append(s.I, c)
			}
		}
	case 3:
		q0, q1, q2 := qp[0], qp[1], qp[2]
		for _, c := range cands {
			p := c.Point
			p0, p1, p2 := p[0], p[1], p[2]
			le := p0 <= q0 && p1 <= q1 && p2 <= q2
			ge := p0 >= q0 && p1 >= q1 && p2 >= q2
			if le {
				if !ge {
					s.D = append(s.D, c)
				}
			} else if !ge {
				s.I = append(s.I, c)
			}
		}
	case 4:
		q0, q1, q2, q3 := qp[0], qp[1], qp[2], qp[3]
		for _, c := range cands {
			p := c.Point
			p0, p1, p2, p3 := p[0], p[1], p[2], p[3]
			le := p0 <= q0 && p1 <= q1 && p2 <= q2 && p3 <= q3
			ge := p0 >= q0 && p1 >= q1 && p2 >= q2 && p3 >= q3
			if le {
				if !ge {
					s.D = append(s.D, c)
				}
			} else if !ge {
				s.I = append(s.I, c)
			}
		}
	default:
		for _, c := range cands {
			switch {
			case vec.Dominates(c.Point, qp):
				s.D = append(s.D, c)
			case !vec.Dominates(qp, c.Point) && !vec.Equal(c.Point, qp):
				s.I = append(s.I, c)
			}
		}
	}
}
