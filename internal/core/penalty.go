// Package core implements WQRTQ, the paper's unified framework for
// answering why-not questions on reverse top-k queries (§4): the penalty
// models of Equations (1)–(5) and the three refinement algorithms
//
//	MQP  — modify the query point q (Algorithm 1),
//	MWK  — modify the why-not weighting vectors Wm and the parameter k
//	       (Algorithm 2), and
//	MQWK — modify q, Wm and k simultaneously (Algorithm 3),
//
// together with exact baselines used to validate the sampling algorithms.
package core

import (
	"errors"
	"fmt"
	"math"

	"wqrtq/internal/vec"
)

// PenaltyModel carries the tolerance parameters of the paper's penalty
// functions. Alpha and Beta weight the changes of k and Wm inside
// Penalty(Wm', k') (Eq. 3/4, α + β = 1); Gamma and Lambda weight the changes
// of q and (Wm, k) inside Penalty(q', Wm', k') (Eq. 5, γ + λ = 1).
type PenaltyModel struct {
	Alpha, Beta   float64
	Gamma, Lambda float64
	// NormalizeWeights selects Eq. (4) exactly as printed, dividing ΔWm by
	// its maximum √(2·|Wm|). The default (false) reproduces the paper's
	// worked examples (§4.3 penalty 0.121 and §4.4 penalty 0.06), which are
	// computed without that normalization; see DESIGN.md.
	NormalizeWeights bool
}

// DefaultPenaltyModel returns the setting used throughout the paper's
// evaluation: α = β = γ = λ = 0.5 (§5.1).
func DefaultPenaltyModel() PenaltyModel {
	return PenaltyModel{Alpha: 0.5, Beta: 0.5, Gamma: 0.5, Lambda: 0.5}
}

// Validate checks the tolerance parameters.
func (pm PenaltyModel) Validate() error {
	for _, v := range []float64{pm.Alpha, pm.Beta, pm.Gamma, pm.Lambda} {
		if v < 0 || math.IsNaN(v) {
			return errors.New("core: penalty weights must be non-negative")
		}
	}
	if math.Abs(pm.Alpha+pm.Beta-1) > 1e-9 {
		return fmt.Errorf("core: alpha + beta = %v, want 1", pm.Alpha+pm.Beta)
	}
	if math.Abs(pm.Gamma+pm.Lambda-1) > 1e-9 {
		return fmt.Errorf("core: gamma + lambda = %v, want 1", pm.Gamma+pm.Lambda)
	}
	return nil
}

// QPenalty is Equation (1): ‖q' − q‖ / ‖q‖, the normalized modification of
// the product q.
func (pm PenaltyModel) QPenalty(q, qp vec.Point) float64 {
	nq := vec.Norm(q)
	if nq == 0 {
		return vec.Norm(qp)
	}
	return vec.Dist(q, qp) / nq
}

// DeltaW is ΔWm: the Euclidean norm of the concatenated weighting-vector
// changes, sqrt(Σᵢ ‖wᵢ' − wᵢ‖²). With NormalizeWeights it is divided by
// the maximum possible value √(2·|Wm|).
func (pm PenaltyModel) DeltaW(wm, wmPrime []vec.Weight) float64 {
	if len(wm) != len(wmPrime) {
		panic("core: DeltaW with mismatched weighting-vector sets")
	}
	s := 0.0
	for i := range wm {
		d := vec.WeightDist(wm[i], wmPrime[i])
		s += d * d
	}
	dw := math.Sqrt(s)
	if pm.NormalizeWeights && len(wm) > 0 {
		dw /= math.Sqrt(2 * float64(len(wm)))
	}
	return dw
}

// WKPenalty is Equation (3)/(4): α·Δk/Δkmax + β·ΔWm, with
// Δk = max(0, k'−k) (decreasing k is free, §4.3) and Δkmax = k'max − k per
// Lemma 4.
func (pm PenaltyModel) WKPenalty(wm, wmPrime []vec.Weight, k, kPrime, kMax int) float64 {
	return pm.kPenalty(k, kPrime, kMax) + pm.Beta*pm.DeltaW(wm, wmPrime)
}

// kPenalty is WKPenalty's k term, α·Δk/Δkmax: non-decreasing in kPrime,
// and a lower bound of WKPenalty at the same (k, kPrime, kMax) under IEEE
// rounding, since the β term it omits is non-negative.
func (pm PenaltyModel) kPenalty(k, kPrime, kMax int) float64 {
	dk := float64(kPrime - k)
	if dk < 0 {
		dk = 0
	}
	dkMax := float64(kMax - k)
	if dkMax < 1 {
		dkMax = 1
	}
	return pm.Alpha * dk / dkMax
}

// TotalPenalty is Equation (5): γ·Penalty(q') + λ·Penalty(Wm', k').
func (pm PenaltyModel) TotalPenalty(q, qp vec.Point, wm, wmPrime []vec.Weight, k, kPrime, kMax int) float64 {
	return pm.Gamma*pm.QPenalty(q, qp) + pm.Lambda*pm.WKPenalty(wm, wmPrime, k, kPrime, kMax)
}
