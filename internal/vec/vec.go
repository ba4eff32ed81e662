// Package vec provides the d-dimensional point and weighting-vector
// primitives shared by every subsystem of the WQRTQ reproduction: linear
// scoring, dominance tests, and small dense-vector arithmetic.
//
// Conventions (paper §3): attribute values are non-negative and smaller
// values are preferable; a weighting vector w satisfies w[i] >= 0 and
// sum_i w[i] = 1; the score of a point p under w is f(w, p) = sum_i w[i]*p[i],
// and smaller scores rank higher.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// Point is a d-dimensional data or query point.
type Point []float64

// Weight is a d-dimensional weighting vector on the standard simplex.
type Weight []float64

// Score returns the linear score f(w, p) = sum_i w[i]*p[i].
// It panics if the dimensionalities differ.
func Score(w Weight, p Point) float64 {
	if len(w) != len(p) {
		panic(fmt.Sprintf("vec: score dimension mismatch %d vs %d", len(w), len(p)))
	}
	s := 0.0
	for i, wi := range w {
		s += wi * p[i]
	}
	return s
}

// Dominates reports whether a dominates b: a[i] <= b[i] on every dimension
// and a[j] < b[j] on at least one.
func Dominates(a, b Point) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// Equal reports exact element-wise equality.
func Equal(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Clone returns a fresh copy of p.
func Clone(p Point) Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// CloneWeight returns a fresh copy of w.
func CloneWeight(w Weight) Weight {
	v := make(Weight, len(w))
	copy(v, w)
	return v
}

// Sub returns a - b as a new vector.
func Sub(a, b Point) Point {
	d := make(Point, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// Norm returns the Euclidean norm of p.
func Norm(p Point) float64 {
	s := 0.0
	for _, v := range p {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b Point) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// WeightDist returns the Euclidean distance between two weighting vectors.
func WeightDist(a, b Weight) float64 {
	return Dist(Point(a), Point(b))
}

// ErrBadWeight is returned by ValidateWeight for vectors that are not on the
// standard simplex.
var ErrBadWeight = errors.New("vec: weighting vector must be non-negative and sum to 1")

// weightSumTol is the tolerance accepted on sum(w) == 1.
const weightSumTol = 1e-9

// ValidateWeight checks that w is a valid weighting vector: every component
// non-negative and the components summing to 1 within a small tolerance.
func ValidateWeight(w Weight) error {
	if len(w) == 0 {
		return ErrBadWeight
	}
	sum := 0.0
	for _, v := range w {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrBadWeight
		}
		sum += v
	}
	if math.Abs(sum-1) > weightSumTol {
		return fmt.Errorf("%w (sum = %v)", ErrBadWeight, sum)
	}
	return nil
}

// ValidatePoint checks that p is finite and non-negative, the data-space
// assumption used throughout the paper.
func ValidatePoint(p Point) error {
	if len(p) == 0 {
		return errors.New("vec: empty point")
	}
	for _, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("vec: point component %v out of domain [0, +inf)", v)
		}
	}
	return nil
}

// Lexicographic compares a and b lexicographically, returning -1, 0 or +1.
func Lexicographic(a, b Point) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}
