// Package mat is the small dense linear-algebra kernel of the MQP solvers:
// row-major dense matrices and Cholesky factorization of symmetric
// positive-definite systems. core.MQP's active-set projection solves its
// Gram systems with it, and the reference interior-point solver (package
// qp) its Newton systems.
//
// The matrices involved are tiny (dimension d <= ~16, or |Wm|), so the
// implementation favours clarity and numerical robustness over blocking or
// SIMD.
package mat

import (
	"errors"
	"math"

	"wqrtq/internal/feq"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, copying the data.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		y[i] = dot(m.Row(i), x)
	}
	return y
}

// TMulVec computes y = Mᵀ x.
func (m *Dense) TMulVec(x []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: TMulVec dimension mismatch")
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if feq.Zero(xi) {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, meaning the matrix is not positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ.
// A must be symmetric positive definite; only the lower triangle is read.
func Cholesky(a *Dense) (*Dense, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("mat: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := New(n, n)
	// Relative pivot tolerance: a pivot this small compared with the largest
	// diagonal entry means the matrix is numerically rank deficient.
	pivTol := 0.0
	for j := 0; j < n; j++ {
		if v := math.Abs(a.At(j, j)); v > pivTol {
			pivTol = v
		}
	}
	pivTol = math.Max(pivTol, 1) * 1e-13
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= pivTol || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return l, nil
}

// CholSolve solves A x = b given the Cholesky factor L of A (forward then
// backward substitution). b is not modified.
func CholSolve(l *Dense, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("mat: CholSolve dimension mismatch")
	}
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Backward: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveSPD solves A x = b for a symmetric positive-definite A. The
// factorization is strict: a rank-deficient or indefinite matrix returns
// ErrNotSPD.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholSolve(l, b), nil
}

// SolveSPDJitter solves A x = b like SolveSPD, but factorizes with
// CholeskyJitter. The interior-point solver uses it to keep Newton systems
// solvable near the boundary of the feasible region, where the scaling
// matrix becomes ill-conditioned.
func SolveSPDJitter(a *Dense, b []float64) ([]float64, error) {
	l, err := CholeskyJitter(a)
	if err != nil {
		return nil, err
	}
	return CholSolve(l, b), nil
}

// spdJitter picks an initial regularization scaled to the matrix magnitude.
func spdJitter(a *Dense) float64 {
	maxAbs := 0.0
	for i := 0; i < a.Rows; i++ {
		v := math.Abs(a.At(i, i))
		if v > maxAbs {
			maxAbs = v
		}
	}
	if feq.Zero(maxAbs) {
		maxAbs = 1
	}
	return 1e-12 * maxAbs
}

// CholeskyJitter factorizes like Cholesky but retries with growing diagonal
// regularization when the matrix is numerically indefinite.
func CholeskyJitter(a *Dense) (*Dense, error) {
	l, err := Cholesky(a)
	if err == nil {
		return l, nil
	}
	jitter := spdJitter(a)
	work := a.Clone()
	for try := 0; try < 6; try++ {
		for i := 0; i < work.Rows; i++ {
			work.Data[i*work.Cols+i] += jitter
		}
		if l, err = Cholesky(work); err == nil {
			return l, nil
		}
		jitter *= 100
	}
	return nil, ErrNotSPD
}
