package rtree

import "wqrtq/internal/vec"

// Rect is a d-dimensional axis-aligned minimum bounding rectangle.
// A point is stored as a degenerate Rect whose Min and Max alias the same
// backing slice.
type Rect struct {
	Min, Max []float64
}

// PointRect wraps a point as a degenerate rectangle without copying.
func PointRect(p vec.Point) Rect {
	return Rect{Min: p, Max: p}
}

// CloneRect deep-copies r.
func CloneRect(r Rect) Rect {
	mn := make([]float64, len(r.Min))
	mx := make([]float64, len(r.Max))
	copy(mn, r.Min)
	copy(mx, r.Max)
	return Rect{Min: mn, Max: mx}
}

// Contains reports whether r fully contains s.
func (r Rect) Contains(s Rect) bool {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the point lies inside r (inclusive).
func (r Rect) ContainsPoint(p vec.Point) bool {
	for i := range r.Min {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Area returns the d-dimensional volume of r.
func (r Rect) Area() float64 {
	a := 1.0
	for i := range r.Min {
		a *= r.Max[i] - r.Min[i]
	}
	return a
}

// Margin returns the sum of the side lengths of r (the R*-tree split
// heuristic minimizes the margin sum over candidate distributions).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// EnlargedArea returns the volume of r extended to cover s. Like
// OverlapArea it compares instead of calling math.Min and math.Max, which
// differ only on NaN and signed zeros, neither of which changes a volume
// of finite coordinates.
func (r Rect) EnlargedArea(s Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if s.Min[i] < lo {
			lo = s.Min[i]
		}
		if s.Max[i] > hi {
			hi = s.Max[i]
		}
		a *= hi - lo
	}
	return a
}

// OverlapArea returns the volume of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 {
	a := 1.0
	for i := range r.Min {
		lo, hi := r.Min[i], r.Max[i]
		if s.Min[i] > lo {
			lo = s.Min[i]
		}
		if s.Max[i] < hi {
			hi = s.Max[i]
		}
		if hi <= lo {
			return 0
		}
		a *= hi - lo
	}
	return a
}

// extend grows r in place to cover s. r must own its backing slices.
func (r *Rect) extend(s Rect) {
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// MinScore returns the smallest possible linear score f(w, p) of any point p
// inside r, which for non-negative weights is the score of the lower corner.
func (r Rect) MinScore(w vec.Weight) float64 {
	return vec.Score(w, r.Min)
}

// MaxScore returns the largest possible linear score of any point inside r.
func (r Rect) MaxScore(w vec.Weight) float64 {
	return vec.Score(w, r.Max)
}

// DominatedBy reports whether every point inside r is dominated-or-equal by
// q, i.e. q[i] <= Min[i] on every dimension. Used to prune subtrees whose
// points can never dominate or be incomparable with q.
func (r Rect) DominatedBy(q vec.Point) bool {
	for i := range q {
		if q[i] > r.Min[i] {
			return false
		}
	}
	return true
}
