package core

import (
	"context"
	"fmt"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// WhyNotRefinements bundles the three refinement solutions of one why-not
// answer.
type WhyNotRefinements struct {
	MQP  MQPResult
	MWK  MWKResult
	MQWK MQWKResult
}

// WhyNotRefine computes all three refinement solutions of a why-not
// question over shared traversal state — the pipeline fusion behind
// Index.WhyNot, and MQWK's implementation. One Candidates walk feeds both
// samplings (classifying at q yields exactly FindIncom's D/I sets, in the
// same encounter order, and it is MQWK's §4.4 reuse cache), the MQP result
// is MQWK's q_min, and MWK's search at q is MQWK's point 0 (both draw it
// from stream seed), so a why-not request pays one traversal, one QP solve
// and |Q|+1 MWK searches instead of three, two and |Q|+2.
//
// MQP and MWK are bit-identical to their standalone entry points with the
// same arguments (MWK handed getRng(seed)): the shared state is equal by
// construction to what each would have recomputed.
func WhyNotRefine(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, seed int64, pm PenaltyModel) (WhyNotRefinements, error) {
	var out WhyNotRefinements
	if err := validateInput(t, q, k, wm); err != nil {
		return out, err
	}
	if sampleSize < 0 {
		return out, fmt.Errorf("core: negative sample size %d", sampleSize)
	}
	if qSampleSize < 0 {
		return out, fmt.Errorf("core: negative query sample size %d", qSampleSize)
	}
	mqp, err := MQP(ctx, t, src, q, k, wm, pm)
	if err != nil {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		return out, fmt.Errorf("core: why-not refinement needs the MQP optimum: %w", err)
	}
	out.MQP = mqp

	// One pruned traversal serves both samplings: classified at q it is
	// FindIncom's D/I split (the traversal visits the same nodes in the
	// same order and applies the same per-point conditions), and it is
	// MQWK's §4.4 reuse cache as-is — as is the universe prepared over it.
	sc := getRankScratch()
	defer putRankScratch(sc)
	cands, visited := sc.candidates(t, src, q, mqp.RefinedQ, wm)

	// Second solution (MWK): the search at q on stream 0, exactly the
	// standalone entry point's.
	mwkRng := getRng(seed)
	mwk, err := mwkSearch(ctx, newRankEval(src, sc, cands, q), k, wm, sampleSize, mwkRng, pm, noBudget)
	putRng(mwkRng)
	if err != nil {
		return out, err
	}
	out.MWK = mwk.result()
	out.MWK.NodesVisited = visited

	// Third solution (MQWK), reusing q_min, the candidate cache and — as
	// its point 0 — the MWK search at q.
	out.MQWK, err = mqwkResolved(ctx, src, sc, mqp.RefinedQ, cands, q, k, wm, sampleSize, qSampleSize, seed, out.MWK, pm)
	return out, err
}
