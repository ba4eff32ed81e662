package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"wqrtq/internal/feq"
	"wqrtq/internal/mat"
	"wqrtq/internal/rtree"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// MQPResult is the outcome of the first solution: the refined query point.
type MQPResult struct {
	RefinedQ vec.Point
	Penalty  float64
	// KthPoints[i] is the top k-th point under Wm[i], whose half space
	// bounds the safe region (Lemma 3).
	KthPoints []topk.Result
}

// ErrSmallDataset is returned when the dataset holds fewer than k points,
// in which case every weighting vector trivially ranks q in its top-k.
var ErrSmallDataset = errors.New("core: dataset smaller than k; nothing to refine")

// MQP implements Algorithm 1: modify the query point q with minimum penalty
// so that every why-not weighting vector includes q' in its top-k.
//
// For each wᵢ ∈ Wm the top k-th point pᵢ is found by best-first
// branch-and-bound search; the safe region SR(q) = ∩ HS(wᵢ, pᵢ) is then
// described by the linear constraints f(wᵢ, q') ≤ sᵢ = f(wᵢ, pᵢ) together
// with the box 0 ≤ q' ≤ q (increasing any coordinate can never help, §4.2),
// and q' is the Euclidean projection of q onto it. The paper hands that
// quadratic program to a generic solver; here it is solved exactly (see
// projectSafeRegion), because weights and points are non-negative: the
// optimum is max(0, q − Σλᵢwᵢ) for multipliers λ ≥ 0, found by a sort of
// breakpoints at |Wm| = 1 and a small active-set method otherwise.
//
// Cancellation is cooperative: the per-vector top k-th searches of phase 1
// poll ctx on their heap loops (the projection of phase 2 costs a sort of d
// breakpoints, or a few |Wm|×|Wm| solves, and runs to completion).
//
// src routes the top k-th searches through the skyband hooks of a Source;
// nil is the oracle path over the full tree. The refined point and penalty
// are bit-identical for any valid Source: the projection consumes only the
// k-th scores, which a k-skyband tree reproduces exactly (only the identity
// of a score-tied k-th point may differ, visible solely in the diagnostic
// KthPoints field).
func MQP(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, pm PenaltyModel) (MQPResult, error) {
	if err := validateInput(t, q, k, wm); err != nil {
		return MQPResult{}, err
	}
	// Phase 1 (lines 1-12): top k-th point per why-not vector.
	kth := make([]topk.Result, len(wm))
	s := make([]float64, len(wm))
	for i, w := range wm {
		r, ok, err := kthPoint(ctx, src, t, w, k)
		if err != nil {
			return MQPResult{}, err
		}
		if !ok {
			return MQPResult{}, ErrSmallDataset
		}
		kth[i], s[i] = r, r.Score
	}
	// Phase 2 (lines 13-14): the point of the safe region closest to q.
	qPrime, _, err := projectSafeRegion(q, wm, s)
	if err != nil {
		return MQPResult{}, fmt.Errorf("core: MQP projection: %w", err)
	}
	return MQPResult{RefinedQ: qPrime, Penalty: pm.QPenalty(q, qPrime), KthPoints: kth}, nil
}

// projectSafeRegion returns the point x of {x ≥ 0 : wᵢ·x ≤ sᵢ} closest to
// q, together with multipliers λ ≥ 0 that certify it: x = max(0, q −
// Σλᵢwᵢ), and λᵢ > 0 only on constraints x meets. Every sᵢ ≥ 0 and every
// coordinate is non-negative, so x = 0 is feasible and x ≤ q never binds.
//
// Only the constraints q violates take part: x ≤ q and w ≥ 0 give
// w·x ≤ w·q, so the rest hold at every candidate. A violated constraint with
// sᵢ = 0 forces x to 0 on its support; that support is zeroed first and the
// constraint's multiplier set last, just large enough to cover it. The
// remaining live constraints (sᵢ > 0) are solved by walkBreakpoints when
// there is one and by projectActiveSet otherwise. x is evaluated from λ and
// snapped into the region in vec.Score's arithmetic. q itself is returned
// (as a copy, with λ = 0) when it violates nothing.
func projectSafeRegion(q vec.Point, wm []vec.Weight, s []float64) (vec.Point, []float64, error) {
	lambda := make([]float64, len(wm))
	qLive := vec.Clone(q)
	var pinned, live []int
	for i, w := range wm {
		if feq.Zero(s[i]) && vec.Score(w, q) > 0 {
			pinned = append(pinned, i)
			for j, wj := range w {
				if wj > 0 {
					qLive[j] = 0
				}
			}
		}
	}
	for i, w := range wm {
		if s[i] > 0 && vec.Score(w, qLive) > s[i] {
			live = append(live, i)
		}
	}
	switch {
	case len(live)+len(pinned) == 0:
		return vec.Clone(q), lambda, nil
	case len(live) == 1:
		lambda[live[0]] = walkBreakpoints(qLive, wm[live[0]], s[live[0]])
	case len(live) > 1:
		if err := projectActiveSet(qLive, wm, s, live, lambda); err != nil {
			return nil, nil, err
		}
	}
	for _, i := range pinned {
		for j, wj := range wm[i] {
			if wj > 0 {
				lambda[i] += math.Max(0, q[j]-dotColumn(wm, lambda, j)) / wj
			}
		}
	}
	x := make(vec.Point, len(q))
	for j := range x {
		x[j] = math.Max(0, q[j]-dotColumn(wm, lambda, j))
	}
	snapToSafeRegion(x, wm, s)
	return x, lambda, nil
}

// dotColumn returns Σᵢ λᵢ·wᵢ[j].
func dotColumn(wm []vec.Weight, lambda []float64, j int) float64 {
	v := 0.0
	for i, w := range wm {
		v += lambda[i] * w[j]
	}
	return v
}

// walkBreakpoints solves w·max(0, q − t·w) = s for t, given w·q > s ≥ 0.
// The left side falls piecewise linearly in t, with a breakpoint at qⱼ/wⱼ
// where coordinate j reaches 0. Walking the breakpoints from the largest
// down, coordinate j joins the sums a = Σwⱼqⱼ and b = Σwⱼ² of the
// coordinates still positive; the walk stops in the first segment whose
// lower end scores at least s, where t = (a − s)/b. Only additions are
// accumulated, so no sum suffers cancellation.
func walkBreakpoints(q vec.Point, w vec.Weight, s float64) float64 {
	type coord struct{ bp, w, q float64 }
	cs := make([]coord, 0, len(w))
	for j, wj := range w {
		if wj > 0 {
			cs = append(cs, coord{q[j] / wj, wj, q[j]})
		}
	}
	slices.SortFunc(cs, func(x, y coord) int { return cmp.Compare(y.bp, x.bp) })
	var a, b float64
	for n, c := range cs {
		a += c.w * c.q
		b += c.w * c.w
		if n+1 == len(cs) || a-b*cs[n+1].bp >= s {
			break
		}
	}
	// a sums w·q in another order than vec.Score, so at rounding level it
	// may not exceed s; t = 0 then leaves the rest to the snap.
	return math.Max(0, (a-s)/b)
}

// projectActiveSet writes into lambda the multipliers of the projection of q
// onto {x ≥ 0 : wᵢ·x ≤ sᵢ for i ∈ live}, for two or more live rows with
// every sᵢ > 0, by a primal active-set method. It starts at the feasible
// x = 0 with no row in the working set (and the bounds of the coordinates
// with qⱼ = 0), and each iteration solves one Gram system over the working
// rows restricted to the free coordinates (the bounds are eliminated) for
// the multipliers of the working set's closest point. While x is not that
// point, x steps toward it and the first constraint met joins the working
// set. Once it is, the most negative multiplier (a row's, or μⱼ = Σλᵢwᵢⱼ −
// qⱼ for a bound) leaves, and if none is negative x is optimal.
func projectActiveSet(q vec.Point, wm []vec.Weight, s []float64, live []int, lambda []float64) error {
	d := len(q)
	x := make([]float64, d)
	p := make([]float64, d)
	zero := make([]bool, d) // bounds xⱼ ≥ 0 in the working set
	var work []int          // rows in the working set
	tiny := 0.0             // rounding level of steps and multipliers
	for j, v := range q {
		zero[j] = feq.Zero(v)
		tiny = math.Max(tiny, 1e-12*v)
	}
	atMin := false // x reached the working set's closest point by a full step
	for iter := 0; iter < 16*(len(live)+d); iter++ {
		if err := workingSetMultipliers(q, x, wm, work, zero, lambda); err != nil {
			return err
		}
		pNorm, free := 0.0, 0
		for j := range p {
			p[j] = 0
			if !zero[j] {
				p[j] = q[j] - x[j] - dotColumn(wm, lambda, j)
				pNorm += p[j] * p[j]
				free++
			}
		}
		pNorm = math.Sqrt(pNorm)
		// With as many working rows as free coordinates the face is the
		// point x, and p is rounding noise.
		if atMin || pNorm <= tiny || len(work) == free {
			drop, bound, worst := -1, -1, -tiny
			for a, i := range work {
				if lambda[i] < worst {
					drop, worst = a, lambda[i]
				}
			}
			for j, z := range zero {
				if !z {
					continue
				}
				if mu := dotColumn(wm, lambda, j) - q[j]; mu < worst {
					drop, bound, worst = -1, j, mu
				}
			}
			switch {
			case bound >= 0:
				zero[bound] = false
			case drop >= 0:
				work = slices.Delete(work, drop, drop+1)
			default:
				for i, v := range lambda {
					lambda[i] = math.Max(0, v)
				}
				return nil
			}
			atMin = false
			continue
		}
		// A constraint whose normal makes a step this small along p is one
		// the working set's face meets up to rounding; taking it in would
		// make the Gram system singular.
		alpha, add, bound, minRate := 1.0, -1, -1, 1e-6*pNorm
		for _, i := range live {
			wp := vec.Score(wm[i], p)
			if wp <= minRate || slices.Contains(work, i) {
				continue
			}
			if r := math.Max(0, s[i]-vec.Score(wm[i], x)) / wp; r < alpha {
				alpha, add = r, i
			}
		}
		for j, pj := range p {
			if pj < -minRate {
				if r := x[j] / -pj; r < alpha {
					alpha, add, bound = r, -1, j
				}
			}
		}
		for j := range x {
			x[j] = math.Max(0, x[j]+alpha*p[j])
		}
		switch {
		case bound >= 0:
			x[bound], zero[bound] = 0, true
		case add >= 0:
			work = append(work, add)
		default:
			atMin = true
		}
	}
	return errors.New("active set did not converge")
}

// workingSetMultipliers sets lambda to the working rows' multipliers, the
// solution of the Gram system G ν = W (q − x) of the working rows W
// restricted to the free coordinates, and every other entry to 0.
func workingSetMultipliers(q, x []float64, wm []vec.Weight, work []int, zero []bool, lambda []float64) error {
	clear(lambda)
	n := len(work)
	if n == 0 {
		return nil
	}
	g := mat.New(n, n)
	rhs := make([]float64, n)
	for a, i := range work {
		for j, z := range zero {
			if z {
				continue
			}
			rhs[a] += wm[i][j] * (q[j] - x[j])
			for b := 0; b <= a; b++ {
				g.Set(a, b, g.At(a, b)+wm[i][j]*wm[work[b]][j])
			}
		}
	}
	nu, err := mat.SolveSPD(g, rhs)
	if err != nil {
		return err
	}
	for a, i := range work {
		lambda[i] = nu[a]
	}
	return nil
}

// snapToSafeRegion makes x satisfy every constraint in the arithmetic
// verification uses: while vec.Score(wᵢ, x) > sᵢ, the coordinates wᵢ
// weighs are scaled by the largest float below sᵢ/f. An exact solution
// can round past its hyperplane, and one scaling can round past it again;
// every scaling lowers every score (w ≥ 0), so the loop ends, in practice
// within three rounds and a few ulps from where it started.
func snapToSafeRegion(x vec.Point, wm []vec.Weight, s []float64) {
	for again := true; again; {
		again = false
		for i, w := range wm {
			f := vec.Score(w, x)
			if f <= s[i] {
				continue
			}
			again = true
			r := math.Nextafter(s[i]/f, 0)
			for j, wj := range w {
				if wj > 0 {
					x[j] *= r
				}
			}
		}
	}
}

func validateInput(t *rtree.Tree, q vec.Point, k int, wm []vec.Weight) error {
	if t == nil || t.Len() == 0 {
		return errors.New("core: empty dataset")
	}
	if len(q) != t.Dim() {
		return fmt.Errorf("core: query dimension %d, index dimension %d", len(q), t.Dim())
	}
	if err := vec.ValidatePoint(q); err != nil {
		return err
	}
	if k <= 0 {
		return errors.New("core: k must be positive")
	}
	if len(wm) == 0 {
		return errors.New("core: empty why-not weighting vector set")
	}
	for _, w := range wm {
		if len(w) != len(q) {
			return errors.New("core: weighting vector dimension mismatch")
		}
		if err := vec.ValidateWeight(w); err != nil {
			return err
		}
	}
	if t.Len() < k {
		return ErrSmallDataset
	}
	return nil
}
