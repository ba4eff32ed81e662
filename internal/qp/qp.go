// Package qp solves small convex quadratic programs of the form
//
//	minimize   ½ xᵀH x + cᵀx
//	subject to G x ≤ h
//
// with H symmetric positive definite, by an infeasible-start primal–dual
// path-following interior-point method: each Newton step forms the dense
// normal matrix H + Gᵀ·diag(z/s)·G and factorizes it with Cholesky.
//
// It is the reference solver, not a product path. The paper solves
// Algorithm 1 (MQP) with the interior-point QuadProg code of Monteiro and
// Adler [26]; the product solves the same program exactly as a projection
// (core.MQP), and core's tests hold that answer to this solver's. The
// benchmark's replay also times it as its qp.solve_us row.
package qp

import (
	"errors"
	"fmt"
	"math"

	"wqrtq/internal/mat"
)

// Problem describes one convex QP instance.
type Problem struct {
	H *mat.Dense // n×n symmetric positive definite
	C []float64  // length n

	G  *mat.Dense // m×n inequality matrix, may be nil (no inequalities)
	Hv []float64  // length m right-hand side of G x ≤ h
}

// Options is Solve's options; the iteration has none to tune.
type Options struct{}

const (
	maxIter = 100  // maximum Newton iterations
	tol     = 1e-9 // convergence tolerance on residuals and duality gap
)

// ErrInfeasible is returned when the iteration cannot reduce the primal
// residual, indicating an empty feasible region (or numerical breakdown).
var ErrInfeasible = errors.New("qp: problem appears infeasible")

// ErrMaxIter is returned when the iteration limit is reached without
// satisfying the convergence tolerances.
var ErrMaxIter = errors.New("qp: maximum iterations reached without convergence")

// Solve returns the minimizer of the problem.
func Solve(p Problem, _ Options) ([]float64, error) {
	n := len(p.C)
	if p.H == nil || p.H.Rows != n || p.H.Cols != n {
		return nil, fmt.Errorf("qp: H must be %d×%d", n, n)
	}
	if p.G != nil && (p.G.Cols != n || len(p.Hv) != p.G.Rows) {
		return nil, errors.New("qp: inconsistent inequality dimensions")
	}
	return solveInequality(p.H, p.C, p.G, p.Hv)
}

// solveInequality runs the primal–dual interior-point iteration on
// min ½xᵀHx + cᵀx subject to Gx ≤ h.
func solveInequality(h *mat.Dense, c []float64, g *mat.Dense, hv []float64) ([]float64, error) {
	n := len(c)
	// Start from the unconstrained minimizer; slacks pushed strictly positive.
	negc := make([]float64, n)
	for i, v := range c {
		negc[i] = -v
	}
	x, err := mat.SolveSPDJitter(h, negc)
	if err != nil {
		return nil, fmt.Errorf("qp: initial point: %w", err)
	}
	if g == nil || g.Rows == 0 {
		return x, nil
	}
	m := g.Rows
	s := make([]float64, m)
	z := make([]float64, m)
	gx := g.MulVec(x)
	for i := 0; i < m; i++ {
		s[i] = math.Max(hv[i]-gx[i], 1)
		z[i] = 1
	}

	scale := 1.0
	for _, v := range c {
		scale = math.Max(scale, math.Abs(v))
	}
	for _, v := range hv {
		scale = math.Max(scale, math.Abs(v))
	}

	rd := make([]float64, n)
	rp := make([]float64, m)
	dz := make([]float64, m)
	ds := make([]float64, m)
	rc := make([]float64, m)
	v := make([]float64, m)
	rhs := make([]float64, n)
	// Best iterate seen so far, by scaled merit max(rd, rp, mu)/scale. The
	// path-following iteration can break down numerically (z/s overflowing
	// the Newton system) after it has already produced an essentially
	// optimal iterate; in that case the best iterate is returned.
	bestX := append([]float64(nil), x...)
	bestMerit := math.Inf(1)
	finish := func(err error) ([]float64, error) {
		const relaxed = 1e-7
		if bestMerit <= relaxed {
			return bestX, nil
		}
		return nil, err
	}
	var rp0, mu0 float64
	for iter := 1; iter <= maxIter; iter++ {
		// Residuals.
		gtz := g.TMulVec(z)
		hx := h.MulVec(x)
		maxRd := 0.0
		for i := 0; i < n; i++ {
			rd[i] = hx[i] + c[i] + gtz[i]
			maxRd = math.Max(maxRd, math.Abs(rd[i]))
		}
		gx = g.MulVec(x)
		maxRp := 0.0
		for i := 0; i < m; i++ {
			rp[i] = gx[i] + s[i] - hv[i]
			maxRp = math.Max(maxRp, math.Abs(rp[i]))
		}
		mu := 0.0
		for i := 0; i < m; i++ {
			mu += s[i] * z[i]
		}
		mu /= float64(m)

		if merit := math.Max(math.Max(maxRd, maxRp), mu) / scale; merit < bestMerit {
			bestMerit = merit
			copy(bestX, x)
		}
		if maxRd <= tol*scale && maxRp <= tol*scale && mu <= tol*scale {
			return x, nil
		}

		// Newton system M = H + Gᵀ diag(z/s) G.
		mtx := h.Clone()
		for r := 0; r < m; r++ {
			d := z[r] / s[r]
			if d > 1e14 {
				d = 1e14
			}
			row := g.Row(r)
			for i := 0; i < n; i++ {
				if row[i] == 0 {
					continue
				}
				di := d * row[i]
				mi := mtx.Row(i)
				for j := 0; j < n; j++ {
					mi[j] += di * row[j]
				}
			}
		}
		lfac, err := mat.CholeskyJitter(mtx)
		if err != nil {
			return nil, fmt.Errorf("qp: newton system: %w", err)
		}
		// Path following toward sᵢzᵢ = σμ, complementarity target
		// rc = s∘z − σμ: dx from (H + GᵀDG)dx = -rd - Gᵀ[(-rc + z∘rp)/s],
		// then ds = -rp - G dx and dz = (-rc - z∘ds)/s. σ is 0.1 while the
		// primal residual falls at least as fast as μ, relative to where
		// both started. From an infeasible start it can lag: μ then drops
		// a hundredfold per step while the slacks run into the boundary
		// ahead of rp, the steps collapse, and a feasible problem would be
		// reported infeasible. A lagging residual raises σ by the lag, up
		// to 0.9, so the slacks stay off the boundary until rp catches up.
		sigma := 0.1
		if iter == 1 {
			rp0, mu0 = maxRp, mu
		}
		if maxRp > tol*scale && maxRp/rp0 > mu/mu0 {
			sigma = math.Min(0.9, 0.1*(maxRp/rp0)/(mu/mu0))
		}
		for i := 0; i < m; i++ {
			rc[i] = s[i]*z[i] - sigma*mu
			v[i] = (-rc[i] + z[i]*rp[i]) / s[i]
		}
		gtv := g.TMulVec(v)
		for i := 0; i < n; i++ {
			rhs[i] = -rd[i] - gtv[i]
		}
		dx := mat.CholSolve(lfac, rhs)
		gdx := g.MulVec(dx)
		for i := 0; i < m; i++ {
			ds[i] = -rp[i] - gdx[i]
			dz[i] = (-rc[i] - z[i]*ds[i]) / s[i]
		}

		// Fraction-to-boundary step keeping s, z strictly positive.
		alpha := 1.0
		for i := 0; i < m; i++ {
			if ds[i] < 0 {
				alpha = math.Min(alpha, -s[i]/ds[i])
			}
			if dz[i] < 0 {
				alpha = math.Min(alpha, -z[i]/dz[i])
			}
		}
		alpha = math.Min(1, 0.99*alpha)
		if alpha < 1e-13 {
			return finish(ErrInfeasible)
		}
		for i := 0; i < n; i++ {
			x[i] += alpha * dx[i]
		}
		for i := 0; i < m; i++ {
			s[i] += alpha * ds[i]
			z[i] += alpha * dz[i]
		}
	}
	// Accept the best iterate if it is essentially optimal; otherwise report
	// why the iteration stopped.
	gx = g.MulVec(bestX)
	for i := 0; i < m; i++ {
		if gx[i] > hv[i]+1e-6*scale {
			return nil, ErrInfeasible
		}
	}
	return finish(ErrMaxIter)
}
