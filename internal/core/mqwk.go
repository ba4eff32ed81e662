package core

import (
	"context"
	"math"

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
// Every evaluation draws from its own stream derived from (seed, point):
// point 0, q itself, from seed — the stream MWK is handed at the same seed,
// so point 0 is MWK's answer and Penalty <= λ·MWK.Penalty exactly — the box
// draw from seed+1, and box point i (1-based) from seed+1+i. The box points
// run one after another on the caller's goroutine.
//
// Algorithm 3 needs the first solution (q_min, line 2) and the second
// solution's search at q (point 0), so MQWK is the last stage of
// WhyNotRefine, which computes both once.
//
// ctx is polled before every sample query point's MWK search (each costing
// |S| in-memory rank evaluations), and the inner sampling loops poll on
// their own intervals, so a canceled refinement unwinds within a fraction
// of one sample's work.
//
// src routes every per-sample evaluation through the skyband hooks of a
// Source: the MQP optimum uses the band's k-th scores, and each sample
// query point's MWK search classifies through the call-fixed candidate
// universe's bitmap index, ranks Wm by binary searches of its below-q score
// lists, samples hyperplanes lazily and ranks the samples by capped sweeps
// of the universe's band trim, at any dimensionality. With a Source the
// box points are also budgeted: a point whose query-point change alone
// costs more than the best penalty found so far is skipped, and the others
// rank their samples only as far as a candidate could still beat it
// (mqwkResolved). nil is the oracle path, running Algorithm 3 as written;
// results are bit-identical for any valid Source.
func MQWK(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, seed int64, pm PenaltyModel) (MQWKResult, error) {
	ref, err := WhyNotRefine(ctx, t, src, q, k, wm, sampleSize, qSampleSize, seed, pm)
	return ref.MQWK, err
}

// candidates runs the §4.4 reuse traversal — every point not dominated by
// and not equal to q, with the number of nodes expanded. Without a Source
// it is dominance.Candidates' list; with one the walk collects the points
// straight into the call-fixed universe for the sample box [qMin, q] (qMin
// nil: q alone), classifying them against the box as it goes, and the list
// is nil: the universe holds the points.
func (sc *rankScratch) candidates(t *rtree.Tree, src *Source, q, qMin vec.Point, wm []vec.Weight) ([]dominance.Ref, int) {
	if src == nil {
		return dominance.Candidates(t, q)
	}
	sc.uni.setBox(q, qMin)
	visited := sc.uni.collect(t)
	sc.prepareUniverse(src, q, qMin, wm)
	return nil, visited
}

// cacheSize is the size of the §4.4 reuse cache the call built: the
// universe's, or the oracle's candidate list's.
func (sc *rankScratch) cacheSize(cands []dominance.Ref) int {
	if sc.prepared {
		return sc.uni.all.Len()
	}
	return len(cands)
}

// budget bounds what one box point's MWK search has to find: qpen is the
// point's γ·QPenalty(q, q′) term of Eq. (5) and bound the lowest total
// penalty found so far (+Inf: none).
type budget struct{ qpen, bound float64 }

var noBudget = budget{bound: math.Inf(1)}

// rankCap returns the largest k′ in [k, kMax] whose penalty floor
// qpen + λ·kPenalty(k, k′, kMax) does not exceed the bound (kMax when
// unbounded). A sample of rank r only enters candidates with k′ >= r, whose
// total penalty is at least that floor at r: samples ranked above the cap
// cannot produce a candidate within the bound. The floor is non-decreasing
// in k′ and equals qpen at k, so a binary search finds the cap.
func (b budget) rankCap(pm PenaltyModel, k, kMax int) int {
	if !(b.bound < math.Inf(1)) {
		return kMax
	}
	lo, hi := k+1, kMax+1
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); b.qpen+pm.Lambda*pm.kPenalty(k, m, kMax) > b.bound {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo - 1
}

// mqwkResolved is the sampling search of Algorithm 3 given what
// WhyNotRefine has already computed: the MQP optimum, the candidate cache —
// with the scratch's universe (if any) prepared over it — and point 0's MWK
// search at q. It scans the pure first solution, point 0 and then the box
// points in index order, adopting a candidate only if it is strictly below
// the best so far: the answer is the first argmin of that order.
//
// With a Source the scan is budgeted by B, the best total penalty so far. A
// box point whose γ·QPenalty alone exceeds B is skipped — its total cannot
// be lower — and the others rank their samples only up to budget.rankCap.
// Both tests are strict, so the first box point attaining the scan's
// minimum is neither skipped nor capped short of its best candidate (whose
// total is at most B and at least its floor): it finds the same (Wm′, k′)
// as unbudgeted. Every other box point totals no less than it would
// unbudgeted, so the first argmin, and the answer, stay the same.
func mqwkResolved(ctx context.Context, src *Source, sc *rankScratch, qMin vec.Point, cands []dominance.Ref, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, seed int64, atQ MWKResult, pm PenaltyModel) (MQWKResult, error) {
	boxRng := getRng(seed + 1)
	box := sample.Box(boxRng, qMin, q, qSampleSize)
	putRng(boxRng)

	// The pure first solution (q' = q_min, Wm and k unchanged), then point
	// 0 (q itself, the pure second solution).
	best := MQWKResult{
		RefinedQ:         qMin,
		RefinedWm:        cloneWeights(wm),
		RefinedK:         k,
		Penalty:          pm.TotalPenalty(q, qMin, wm, wm, k, k, k+1),
		QMin:             qMin,
		CandidatesCached: sc.cacheSize(cands),
		TreeTraversals:   2,
	}
	if p := pm.Gamma*pm.QPenalty(q, q) + pm.Lambda*atQ.Penalty; p < best.Penalty {
		best.RefinedQ = vec.Clone(q)
		best.RefinedWm = cloneWeights(atQ.RefinedWm)
		best.RefinedK = atQ.RefinedK
		best.Penalty = p
	}

	// Lines 3-9: the box points, box point i (1-based) on stream seed+1+i.
	rng := getRng(seed) // reseeded per point
	defer putRng(rng)
	for i, qp := range box {
		if err := ctx.Err(); err != nil {
			return MQWKResult{}, err
		}
		bud := budget{qpen: pm.Gamma * pm.QPenalty(q, qp), bound: math.Inf(1)}
		if src != nil {
			bud.bound = best.Penalty
		}
		if bud.qpen > bud.bound {
			src.Routes.countSkipped()
			continue
		}
		rng.Seed(seed + 1 + int64(i+1))
		wk, err := mwkSearch(ctx, newRankEval(src, sc, cands, qp), k, wm, sampleSize, rng, pm, bud)
		if err != nil {
			return MQWKResult{}, err
		}
		// The outcome aliases the scratch, which the next search
		// overwrites: copy an adopted one out now.
		if p := bud.qpen + pm.Lambda*wk.Penalty; p < best.Penalty {
			best.RefinedQ = qp
			best.RefinedWm = cloneWeights(wk.refined)
			best.RefinedK = wk.RefinedK
			best.Penalty = p
		}
	}
	return best, nil
}
