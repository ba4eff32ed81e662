package wqrtq

import (
	"context"

	"wqrtq/internal/core"
	"wqrtq/internal/vec"
)

// PenaltyModel mirrors the paper's penalty tolerances: Alpha/Beta weight the
// changes of k and Wm (Eq. 4, Alpha+Beta = 1); Gamma/Lambda weight the
// changes of q and (Wm, k) (Eq. 5, Gamma+Lambda = 1). The zero value is
// replaced by the paper's default 0.5/0.5/0.5/0.5 (§5.1).
//
// NormalizeWeights switches ΔWm to the printed Eq. (4) normalization by
// √(2·|Wm|); the default reproduces the paper's worked examples (see
// DESIGN.md).
type PenaltyModel struct {
	Alpha, Beta      float64
	Gamma, Lambda    float64
	NormalizeWeights bool
}

// Options tunes the refinement algorithms.
type Options struct {
	// Penalty is the penalty model; zero value = paper defaults.
	Penalty PenaltyModel
	// SampleSize is |S|, the number of weighting-vector samples used by
	// ModifyPreferences and ModifyAll (default 800, Table 1). ModifyAll
	// also draws |Q| = |S| query-point samples, as in §5.1 ("the sample
	// sizes of weighting vectors and |Q| are identical in our experiments").
	SampleSize int
	// Seed makes the sampling deterministic (default 1).
	Seed int64
}

func (o Options) resolve() (core.PenaltyModel, int, int64, error) {
	pm := core.PenaltyModel{
		Alpha: o.Penalty.Alpha, Beta: o.Penalty.Beta,
		Gamma: o.Penalty.Gamma, Lambda: o.Penalty.Lambda,
		NormalizeWeights: o.Penalty.NormalizeWeights,
	}
	if pm.Alpha == 0 && pm.Beta == 0 {
		pm.Alpha, pm.Beta = 0.5, 0.5
	}
	if pm.Gamma == 0 && pm.Lambda == 0 {
		pm.Gamma, pm.Lambda = 0.5, 0.5
	}
	if err := pm.Validate(); err != nil {
		return pm, 0, 0, invalidArg(err)
	}
	s := o.SampleSize
	if s == 0 {
		s = 800
	}
	if s < 0 {
		return pm, 0, 0, invalidArgf("negative sample size %d", s)
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	return pm, s, seed, nil
}

// QueryRefinement is the answer of ModifyQuery (solution 1, MQP).
type QueryRefinement struct {
	// Q is the refined product: the point of the safe region closest to
	// the original query point.
	Q []float64
	// Penalty is ‖q'-q‖/‖q‖ (Eq. 1).
	Penalty float64
}

// PreferenceRefinement is the answer of ModifyPreferences (solution 2, MWK).
type PreferenceRefinement struct {
	// Wm are the refined weighting vectors, aligned with the input set.
	Wm [][]float64
	// K is the refined parameter k'.
	K int
	// Penalty is α·Δk/Δkmax + β·ΔWm (Eq. 4).
	Penalty float64
	// KMax is k'max (Lemma 4), the k' that would admit q with Wm unchanged.
	KMax int
}

// FullRefinement is the answer of ModifyAll (solution 3, MQWK).
type FullRefinement struct {
	Q  []float64
	Wm [][]float64
	K  int
	// Penalty is γ·Penalty(q') + λ·Penalty(Wm', k') (Eq. 5).
	Penalty float64
}

// ModifyQuery refines the query point q with minimum penalty so that every
// weighting vector in Wm ranks the refined point within its top-k
// (Algorithm 1, MQP). It is a thin wrapper over ModifyQueryCtx with
// context.Background().
func (ix *Index) ModifyQuery(q []float64, k int, Wm [][]float64, opts Options) (QueryRefinement, error) {
	resp, err := ix.ModifyQueryCtx(context.Background(), ModifyQueryRequest{Q: q, K: k, Wm: Wm, Opts: opts})
	if err != nil {
		return QueryRefinement{}, err
	}
	return resp.Refinement, nil
}

// ModifyPreferences refines the why-not weighting vectors and the parameter
// k with minimum penalty so that q enters the top-k' of every refined
// vector (Algorithm 2, MWK). It is a thin wrapper over ModifyPreferencesCtx
// with context.Background().
func (ix *Index) ModifyPreferences(q []float64, k int, Wm [][]float64, o Options) (PreferenceRefinement, error) {
	resp, err := ix.ModifyPreferencesCtx(context.Background(), ModifyPreferencesRequest{Q: q, K: k, Wm: Wm, Opts: o})
	if err != nil {
		return PreferenceRefinement{}, err
	}
	return resp.Refinement, nil
}

// ModifyAll refines the query point, the why-not vectors and k
// simultaneously (Algorithm 3, MQWK). It is a thin wrapper over
// ModifyAllCtx with context.Background().
func (ix *Index) ModifyAll(q []float64, k int, Wm [][]float64, o Options) (FullRefinement, error) {
	resp, err := ix.ModifyAllCtx(context.Background(), ModifyAllRequest{Q: q, K: k, Wm: Wm, Opts: o})
	if err != nil {
		return FullRefinement{}, err
	}
	return resp.Refinement, nil
}

// Verify checks the defining property of a refined query: every weighting
// vector in Wm ranks q within its top-k.
func (ix *Index) Verify(q []float64, k int, Wm [][]float64) (bool, error) {
	ws, err := ix.checkWeights(Wm)
	if err != nil {
		return false, err
	}
	if err := ix.checkPoint(q); err != nil {
		return false, err
	}
	return core.VerifyRefinement(ix.tree, q, k, ws), nil
}

// WhyNotAnswer bundles the full pipeline output of Index.WhyNot.
type WhyNotAnswer struct {
	// Result is the bichromatic reverse top-k result (indices into W).
	Result []int
	// RTA reports the pruning statistics of the reverse top-k stage.
	RTA RTAStats
	// Missing is W minus Result: the why-not candidates.
	Missing []int
	// Explanations[i] lists the points responsible for excluding
	// W[Missing[i]], in rank order (first aspect, §3).
	Explanations [][]Ranked
	// The three refinement suggestions (second aspect, §4); each makes
	// every missing vector part of the refined result.
	ModifiedQuery       QueryRefinement
	ModifiedPreferences PreferenceRefinement
	ModifiedAll         FullRefinement
}

// WhyNot runs the complete why-not pipeline for the reverse top-k query of
// q over W: it computes the result, identifies the missing vectors,
// explains each omission, and produces all three refinement suggestions.
// If nothing is missing, only Result is populated. It is a thin wrapper
// over WhyNotCtx with context.Background().
func (ix *Index) WhyNot(q []float64, k int, W [][]float64, opts Options) (*WhyNotAnswer, error) {
	resp, err := ix.WhyNotCtx(context.Background(), WhyNotRequest{Q: q, K: k, W: W, Opts: opts})
	if err != nil {
		return nil, err
	}
	return resp.Answer, nil
}

func toQueryRefinement(r core.MQPResult) QueryRefinement {
	return QueryRefinement{Q: r.RefinedQ, Penalty: r.Penalty}
}

func toPreferenceRefinement(r core.MWKResult) PreferenceRefinement {
	return PreferenceRefinement{Wm: weightsToFloats(r.RefinedWm), K: r.RefinedK, Penalty: r.Penalty, KMax: r.KMax}
}

func toFullRefinement(r core.MQWKResult) FullRefinement {
	return FullRefinement{Q: r.RefinedQ, Wm: weightsToFloats(r.RefinedWm), K: r.RefinedK, Penalty: r.Penalty}
}

func weightsToFloats(ws []vec.Weight) [][]float64 {
	out := make([][]float64, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}
