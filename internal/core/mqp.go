package core

import (
	"context"
	"errors"
	"fmt"

	"wqrtq/internal/mat"
	"wqrtq/internal/qp"
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
	// QPIterations reports interior-point iterations, the d³·L term of
	// Theorem 1.
	QPIterations int
}

// ErrSmallDataset is returned when the dataset holds fewer than k points,
// in which case every weighting vector trivially ranks q in its top-k.
var ErrSmallDataset = errors.New("core: dataset smaller than k; nothing to refine")

// MQP implements Algorithm 1: modify the query point q with minimum penalty
// so that every why-not weighting vector includes q' in its top-k.
//
// For each wᵢ ∈ Wm the top k-th point pᵢ is found by best-first
// branch-and-bound search; the safe region SR(q) = ∩ HS(wᵢ, pᵢ) is then
// described by the linear constraints f(wᵢ, q') ≤ f(wᵢ, pᵢ) together with
// the box 0 ≤ q' ≤ q (increasing any coordinate can never help, §4.2), and
// the closest point of the region to q is obtained by interior-point
// quadratic programming: minimize ‖q' − q‖².
//
// Cancellation is cooperative: the per-vector top k-th searches of phase 1
// poll ctx on their heap loops (the interior-point solve of phase 2 is a
// small dense problem and runs to completion).
//
// src routes the top k-th searches through the skyband hooks of a Source;
// nil is the oracle path over the full tree. The refined point and penalty
// are bit-identical for any valid Source: the safe-region constraints and
// the feasibility snap consume only the k-th scores, which a k-skyband tree
// reproduces exactly (only the identity of a score-tied k-th point may
// differ, visible solely in the diagnostic KthPoints field).
func MQP(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, pm PenaltyModel) (MQPResult, error) {
	d := len(q)
	if err := validateInput(t, q, k, wm); err != nil {
		return MQPResult{}, err
	}
	// Phase 1 (lines 1-12): top k-th point per why-not vector.
	kth := make([]topk.Result, len(wm))
	for i, w := range wm {
		r, ok, err := kthPoint(ctx, src, t, w, k)
		if err != nil {
			return MQPResult{}, err
		}
		if !ok {
			return MQPResult{}, ErrSmallDataset
		}
		kth[i] = r
	}
	// Short-circuit: if q already satisfies every safe-region constraint
	// (every why-not vector ranks q within its top-k), no modification is
	// needed and the interior-point iteration would only add noise.
	satisfied := true
	//wqrtq:bounded one Score per why-not vector, request-sized
	for i, w := range wm {
		if vec.Score(w, q) > kth[i].Score {
			satisfied = false
			break
		}
	}
	if satisfied {
		return MQPResult{RefinedQ: vec.Clone(q), Penalty: 0, KthPoints: kth}, nil
	}
	// Phase 2 (lines 13-14): quadratic program per §4.2:
	// H = diag(2), c = -2q, rows wᵢ·x ≤ f(wᵢ, pᵢ), 0 ≤ x ≤ q.
	//
	// Dimensions with q[i] = 0 are eliminated first: their box constraint
	// 0 ≤ x[i] ≤ 0 pins x[i] = 0, and keeping the pair of opposing
	// inequalities would leave the interior-point iteration without a
	// strictly feasible region.
	free := make([]int, 0, d)
	for i := 0; i < d; i++ {
		if q[i] > 0 {
			free = append(free, i)
		}
	}
	nf := len(free)
	if nf == 0 {
		// q is the origin and dominates everything; the satisfied check
		// above must already have returned. Guard anyway.
		return MQPResult{RefinedQ: vec.Clone(q), Penalty: 0, KthPoints: kth}, nil
	}
	h := mat.New(nf, nf)
	c := make([]float64, nf)
	//wqrtq:bounded one diagonal entry per free dimension
	for i, fi := range free {
		h.Set(i, i, 2)
		c[i] = -2 * q[fi]
	}
	g := mat.New(len(wm)+2*nf, nf)
	hv := make([]float64, len(wm)+2*nf)
	//wqrtq:bounded one constraint row per why-not vector
	for i, w := range wm {
		row := g.Row(i)
		for j, fj := range free {
			row[j] = w[fj]
		}
		hv[i] = kth[i].Score // fixed dims contribute 0 to f(w, x)
	}
	//wqrtq:bounded box-constraint rows, one per free dimension
	for i, fi := range free {
		g.Set(len(wm)+i, i, 1)
		hv[len(wm)+i] = q[fi]
		g.Set(len(wm)+nf+i, i, -1)
		hv[len(wm)+nf+i] = 0
	}
	res, err := qp.SolveDetailed(qp.Problem{H: h, C: c, G: g, Hv: hv}, qp.Options{})
	if err != nil {
		return MQPResult{}, fmt.Errorf("core: MQP quadratic program: %w", err)
	}
	full := make(vec.Point, d)
	for i, fi := range free {
		full[fi] = res.X[i]
	}
	qPrime := snapToSafeRegion(full, q, wm, kth)
	return MQPResult{
		RefinedQ:     qPrime,
		Penalty:      pm.QPenalty(q, qPrime),
		KthPoints:    kth,
		QPIterations: res.Iterations,
	}, nil
}

// snapToSafeRegion clamps the QP solution into the box [0, q] and, if
// floating-point residue leaves any scoring constraint violated by an
// epsilon, scales the point toward the origin until all constraints hold.
// Scaling multiplies every score by the same factor (< 1), so it restores
// feasibility with a penalty increase on the order of the solver tolerance.
func snapToSafeRegion(x, q vec.Point, wm []vec.Weight, kth []topk.Result) vec.Point {
	out := make(vec.Point, len(x))
	for i := range x {
		v := x[i]
		if v < 0 {
			v = 0
		}
		if v > q[i] {
			v = q[i]
		}
		out[i] = v
	}
	factor := 1.0
	for i, w := range wm {
		f := vec.Score(w, out)
		if f > kth[i].Score && f > 0 {
			if r := kth[i].Score / f; r < factor {
				factor = r
			}
		}
	}
	if factor < 1 {
		for i := range out {
			out[i] *= factor
		}
	}
	return out
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
