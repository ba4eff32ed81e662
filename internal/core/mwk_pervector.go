package core

import (
	"context"
	"math/rand"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// MWKPerVector implements the *first* candidate-selection strategy
// discussed in §4.3: "for every why-not weighting vector wᵢ ∈ Wm, find a
// sample weighting vector wsᵢ with minimum |wsᵢ − wᵢ|, and then replace wᵢ
// with wsᵢ; the corresponding k' is computed per Lemma 5(i)".
//
// This makes ΔWm individually minimal, but — as the paper observes — the
// total penalty of (Wm', k') "may not be the minimum", because a vector
// replaced by its closest sample can drag k' up for everyone. The scanning
// strategy of MWK (Lemma 6) dominates it on penalty; this variant exists as
// the paper's explicitly described alternative and as an ablation baseline
// (BenchmarkAblationMWKStrategy). ctx and src are as for MWK.
func MWKPerVector(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, sampleSize int, rng *rand.Rand, pm PenaltyModel) (MWKResult, error) {
	return mwkEntry(ctx, t, src, q, k, wm, sampleSize, rng, pm, mwkPerVectorSearch)
}

// mwkPerVectorSearch is the per-vector candidate strategy over one
// classified query point, sharing mwkSamples with mwkSearch.
func mwkPerVectorSearch(ctx context.Context, ev *rankEval, k int, wm []vec.Weight, sampleSize int, rng *rand.Rand, pm PenaltyModel) (mwkOutcome, error) {
	// Draw once, shared by all why-not vectors. Only samples that improve
	// q's rank below k'max are useful (Lemma 4).
	st, err := mwkSamples(ctx, ev, k, wm, sampleSize, rng, pm)
	if err != nil || st.done {
		return st.out, err
	}
	sc := ev.sc
	cw := append(sc.cw[:0], wm...)
	sc.cw = cw
	kPrime := k
	for i := range wm {
		if st.ranks[i] <= k {
			continue
		}
		bestDist := -1.0
		bestRank := 0
		for _, s := range st.samples {
			if err := st.tick.Tick(); err != nil {
				return mwkOutcome{}, err
			}
			if d := vec.WeightDist(wm[i], s.w); bestDist < 0 || d < bestDist {
				bestDist = d
				cw[i] = s.w
				bestRank = s.rank
			}
		}
		if bestRank > kPrime {
			kPrime = bestRank // Lemma 5(i): k' = max of the chosen ranks
		}
	}
	res := mwkOutcome{
		MWKResult: MWKResult{
			RefinedK:    kPrime,
			Penalty:     pm.WKPenalty(wm, cw, k, kPrime, st.kMax),
			KMax:        st.kMax,
			SamplesUsed: len(st.samples),
		},
		refined: cw,
	}
	// The k-only baseline may still be cheaper.
	if st.out.Penalty < res.Penalty {
		return st.out, nil
	}
	return res, nil
}
