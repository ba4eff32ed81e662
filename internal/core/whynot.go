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
// Index.WhyNot. Run separately, the solutions repeat each other's index
// work: MWK's FindIncom and MQWK's candidate cache are the same pruned
// traversal, and MQWK's line 2 re-runs the MQP optimum that the first
// solution just produced. Here one Candidates walk feeds both samplings
// (classifying at q yields exactly FindIncom's D/I sets, in the same
// encounter order) and the MQP result is computed once and reused as
// MQWK's q_min, so a why-not request pays one traversal and one QP solve
// instead of three and two.
//
// Every result is bit-identical to the standalone entry points with the
// same arguments: each stage seeds its own rng exactly as the separate
// calls do, and the shared state is equal by construction to what each
// stage would have recomputed.
func WhyNotRefine(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, seed int64, workers int, pm PenaltyModel) (WhyNotRefinements, error) {
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
	cands, visited := sc.candidates(t, src, q, mqp.RefinedQ, wm, qSampleSize+1)

	// Second solution (MWK), on its own rng stream exactly like the
	// standalone entry point.
	mwkRng := getRng(seed)
	mwk, err := mwkSearch(ctx, newRankEval(src, sc, cands, q), k, wm, sampleSize, mwkRng, pm)
	putRng(mwkRng)
	if err != nil {
		return out, err
	}
	out.MWK = mwk.result()
	out.MWK.NodesVisited = visited

	// Third solution (MQWK), reusing q_min and the candidate cache.
	if workers != 0 {
		out.MQWK, err = mqwkParallelResolved(ctx, src, sc, mqp.RefinedQ, cands, q, k, wm, sampleSize, qSampleSize, seed, workers, pm)
	} else {
		mqwkRng := getRng(seed)
		out.MQWK, err = mqwkResolved(ctx, src, sc, mqp.RefinedQ, cands, q, k, wm, sampleSize, qSampleSize, mqwkRng, pm)
		putRng(mqwkRng)
	}
	return out, err
}
