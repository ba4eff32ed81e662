package core

import (
	"context"
	"fmt"
	"math/rand"

	"wqrtq/internal/dominance"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// MQWKResult is the outcome of the third solution: a simultaneous
// refinement of the query point, the why-not vectors and k.
type MQWKResult struct {
	RefinedQ  vec.Point
	RefinedWm []vec.Weight
	RefinedK  int
	Penalty   float64
	// QMin is the first-solution optimum bounding the query-point sample
	// space SP(q) = (q_min, q) (§4.4, Figure 6).
	QMin vec.Point
	// CandidatesCached is the size of the reuse cache: the points not
	// dominated by q, classified in memory for every sample query point
	// instead of re-traversing the R-tree (§4.4 reuse technique).
	CandidatesCached int
	// TreeTraversals counts full R-tree walks performed (2 with reuse: one
	// for MQP's k-th points amortized per vector, one for the candidate
	// cache), versus |Q|+1 without it.
	TreeTraversals int
}

// MQWK implements Algorithm 3: sample |Q| query points from the box
// [q_min, q], run the MWK search for each against the shared candidate
// cache, and return the tuple (q', Wm', k') with the smallest Eq. (5)
// penalty.
//
// The two endpoints of the sample space are also evaluated as candidates:
// q' = q_min with (Wm, k) unchanged (pure first solution) and q' = q with
// the best (Wm', k') (pure second solution), so MQWK never returns a worse
// penalty than γ·Penalty(q_min) or λ·Penalty(Wm', k').
//
// ctx is polled before every sample query point's MWK search (each costing
// |S| in-memory rank evaluations), and the inner sampling loops poll on
// their own intervals, so a canceled refinement unwinds within a fraction
// of one sample's work.
//
// src routes every per-sample evaluation through the skyband hooks of a
// Source: the MQP optimum uses the band's k-th scores, and each sample
// query point's MWK search classifies against the call-fixed candidate
// universe, samples hyperplanes lazily and ranks by capped sweeps of that
// universe's band trim, at any dimensionality. nil is the oracle path;
// results are bit-identical for any valid Source.
func MQWK(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, rng *rand.Rand, pm PenaltyModel) (MQWKResult, error) {
	qMin, err := mqwkQMin(ctx, t, src, q, k, wm, qSampleSize, pm)
	if err != nil {
		return MQWKResult{}, err
	}
	// Reuse cache: one traversal serves every sample point in [q_min, q].
	sc := getRankScratch()
	defer putRankScratch(sc)
	cands, _ := sc.candidates(t, src, q, qMin, wm, qSampleSize+1)
	return mqwkResolved(ctx, src, sc, qMin, cands, q, k, wm, sampleSize, qSampleSize, rng, pm)
}

// mqwkQMin validates an MQWK call and computes line 2 of Algorithm 3: q_min
// from the first solution.
func mqwkQMin(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, qSampleSize int, pm PenaltyModel) (vec.Point, error) {
	if err := validateInput(t, q, k, wm); err != nil {
		return nil, err
	}
	if qSampleSize < 0 {
		return nil, fmt.Errorf("core: negative query sample size %d", qSampleSize)
	}
	mqp, err := MQP(ctx, t, src, q, k, wm, pm)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: MQWK needs the MQP optimum: %w", err)
	}
	return mqp.RefinedQ, nil
}

// candidates runs the §4.4 reuse traversal — every point not dominated by
// and not equal to q, with the number of nodes expanded — and, with a
// Source, prepares the call-fixed universe over it for the sample box
// [qMin, q] (qMin nil: q alone). On the source path the list lives in the
// scratch's pooled buffer, so repeated refinements reuse one backing array.
func (sc *rankScratch) candidates(t *rtree.Tree, src *Source, q, qMin vec.Point, wm []vec.Weight, qSamples int) ([]dominance.Ref, int) {
	if src == nil {
		return dominance.Candidates(t, q)
	}
	cands, visited := dominance.CandidatesInto(t, q, sc.candBuf[:0])
	sc.candBuf = cands
	sc.prepareUniverse(src, cands, q, qMin, wm, qSamples)
	return cands, visited
}

// mqwkBest is the running optimum of Algorithm 3, seeded with the pure
// first solution (q' = q_min, Wm and k unchanged).
func mqwkBest(qMin vec.Point, cands int, q vec.Point, k int, wm []vec.Weight, pm PenaltyModel) MQWKResult {
	return MQWKResult{
		RefinedQ:         qMin,
		RefinedWm:        cloneWeights(wm),
		RefinedK:         k,
		Penalty:          pm.TotalPenalty(q, qMin, wm, wm, k, k, k+1),
		QMin:             qMin,
		CandidatesCached: cands,
		TreeTraversals:   2,
	}
}

// mqwkResolved is the sampling search of Algorithm 3 given the MQP optimum
// and the candidate cache, with the scratch's universe (if any) already
// prepared over it (one resolution serves both the standalone entry point
// and the fused why-not pipeline, which shares these across refinement
// solutions).
func mqwkResolved(ctx context.Context, src *Source, sc *rankScratch, qMin vec.Point, cands []dominance.Ref, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, rng *rand.Rand, pm PenaltyModel) (MQWKResult, error) {
	best := mqwkBest(qMin, len(cands), q, k, wm, pm)
	evaluate := func(qp vec.Point) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		wk, err := mwkSearch(ctx, newRankEval(src, sc, cands, qp), k, wm, sampleSize, rng, pm)
		if err != nil {
			return err
		}
		p := pm.Gamma*pm.QPenalty(q, qp) + pm.Lambda*wk.Penalty
		if p < best.Penalty {
			best.RefinedQ = vec.Clone(qp)
			best.RefinedWm = cloneWeights(wk.refined)
			best.RefinedK = wk.RefinedK
			best.Penalty = p
		}
		return nil
	}

	// Endpoint q (pure second solution).
	if err := evaluate(q); err != nil {
		return MQWKResult{}, err
	}
	// Lines 3-9: sampled interior points.
	for _, qp := range sample.Box(rng, qMin, q, qSampleSize) {
		if err := evaluate(qp); err != nil {
			return MQWKResult{}, err
		}
	}
	return best, nil
}
