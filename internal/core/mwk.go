package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"wqrtq/internal/ctxcheck"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// sampleCheckInterval is how many weighting-vector samples (each costing one
// in-memory rank evaluation over the candidate sets) a refinement loop
// processes between context polls.
const sampleCheckInterval = 16

// MWKResult is the outcome of the second solution: refined preferences.
type MWKResult struct {
	RefinedWm []vec.Weight
	RefinedK  int
	Penalty   float64
	// KMax is k'max of Lemma 4: the largest actual ranking of q under the
	// original why-not vectors; (Wm, KMax) is always a feasible fallback.
	KMax int
	// BaselineChosen reports that the fallback (Wm unchanged, k' = KMax)
	// had the smallest penalty among all examined candidates.
	BaselineChosen bool
	// SamplesUsed counts the weighting vectors actually examined (those
	// whose rank did not exceed KMax, per Algorithm 2 line 13).
	SamplesUsed int
	// NodesVisited counts R-tree nodes expanded by FindIncom.
	NodesVisited int
}

// MWK implements Algorithm 2: modify the why-not weighting vector set Wm
// and the parameter k with minimum penalty so that q enters the reverse
// top-k' result of every refined vector. The |S|-sample drawing and ranking
// loop polls ctx every sampleCheckInterval samples.
//
// src routes the per-sample rank evaluations and the sampler construction
// through the skyband hooks of a Source; nil is the oracle path. Results
// are bit-identical for any valid Source.
func MWK(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, sampleSize int, rng *rand.Rand, pm PenaltyModel) (MWKResult, error) {
	if err := validateInput(t, q, k, wm); err != nil {
		return MWKResult{}, err
	}
	if sampleSize < 0 {
		return MWKResult{}, fmt.Errorf("core: negative sample size %d", sampleSize)
	}
	// q's dominance sets come from one Candidates walk classified at q —
	// exactly FindIncom's D/I split, in the same encounter order and over
	// the same nodes — so a standalone call is served like a fused one.
	sc := getRankScratch()
	defer putRankScratch(sc)
	cands, visited := sc.candidates(t, src, q, nil, wm)
	out, err := mwkSearch(ctx, newRankEval(src, sc, cands, q), k, wm, sampleSize, rng, pm, noBudget)
	if err != nil {
		return MWKResult{}, err
	}
	res := out.result()
	res.NodesVisited = visited
	return res, nil
}

// mwkOutcome is a search's result before its refined vectors are copied
// out: refined aliases the caller's wm, the scratch's candidate buffers and
// its kept-sample arena, all valid until the scratch's next search. MQWK
// evaluates hundreds of sample query points and adopts a handful, so only
// an adopted outcome pays for the copy (result).
type mwkOutcome struct {
	MWKResult
	refined []vec.Weight
}

// result materializes the outcome as a self-contained MWKResult.
func (o mwkOutcome) result() MWKResult {
	o.RefinedWm = cloneWeights(o.refined)
	return o.MWKResult
}

// mwkSearch is the sampling search of Algorithm 2 over one classified query
// point, with the Lemma 6 candidate scan. All index work goes through ev;
// the buffers are ev's scratch. bud lets an MQWK box point rank its samples
// only as far as a candidate could still come within the budget
// (budget.rankCap); noBudget ranks up to k'max, as Algorithm 2 does.
func mwkSearch(ctx context.Context, ev *rankEval, k int, wm []vec.Weight, sampleSize int, rng *rand.Rand, pm PenaltyModel, bud budget) (mwkOutcome, error) {
	if err := ctx.Err(); err != nil {
		return mwkOutcome{}, err
	}
	tick := ctxcheck.Every(ctx, sampleCheckInterval)
	// Actual rankings and k'max (lines 7-9).
	sc := ev.sc
	ranks := sc.ranksBuf(len(wm))
	ev.rankWm(wm, ranks)
	kMax, active := 0, 0
	for _, r := range ranks {
		kMax = max(kMax, r)
		if r > k {
			active++
		}
	}
	if active == 0 {
		// Every vector already ranks q within top-k: nothing to refine.
		return mwkOutcome{MWKResult: MWKResult{RefinedK: k, KMax: kMax}, refined: wm}, nil
	}
	// Baseline candidate (line 11): keep Wm, raise k to k'max (Lemma 4).
	best := mwkOutcome{
		MWKResult: MWKResult{
			RefinedK:       kMax,
			Penalty:        pm.WKPenalty(wm, wm, k, kMax, kMax),
			KMax:           kMax,
			BaselineChosen: true,
		},
		refined: wm,
	}
	// Sample space (line 3): hyperplanes of incomparable points.
	draw, err := newDraw(ev, rng)
	if err == sample.ErrNoSampleSpace || sampleSize == 0 {
		// Weight modification cannot help; the k-only baseline stands.
		return best, nil
	} else if err != nil {
		return mwkOutcome{}, err
	}
	// Draw and rank the samples (lines 3-6), keeping only those whose rank
	// does not exceed k'max (Lemma 4; line 13's break applied up front) —
	// or the budget's cap below it: the samples dropped are a suffix of
	// the rank order, and every candidate they would have made costs more
	// than the budget.
	rankCap := bud.rankCap(pm, k, kMax)
	if rankCap < kMax {
		ev.rc.countCapped()
	}
	ev.forSamples(rankCap)
	samples, err := drawRankedSamples(ctx, &tick, ev, draw, sampleSize, rankCap)
	if err != nil || len(samples) == 0 {
		return best, err
	}
	slices.SortStableFunc(samples, func(a, b sampleRank) int { return a.rank - b.rank })

	// Candidate scan per Lemma 6 (lines 10-18). CW holds, per why-not
	// vector, the closest sample seen so far; vectors already ranking q
	// within top-k stay fixed at their original value.
	cw := append(sc.cw[:0], wm...)
	if cap(sc.dist) < len(wm) {
		sc.dist = make([]float64, len(wm))
	}
	dist := sc.dist[:len(wm)]
	first := samples[0]
	//wqrtq:bounded one distance per why-not vector, request-sized
	for i := range wm {
		if ranks[i] <= k {
			dist[i] = 0 // inactive: never replaced
			continue
		}
		cw[i] = first.w
		dist[i] = vec.WeightDist(wm[i], first.w)
	}
	consider := func(kPrime int) {
		if kPrime < k {
			kPrime = k
		}
		p := pm.WKPenalty(wm, cw, k, kPrime, kMax)
		if p < best.Penalty {
			sc.bestCW = append(sc.bestCW[:0], cw...)
			best = mwkOutcome{MWKResult: MWKResult{RefinedK: kPrime, Penalty: p, KMax: kMax}, refined: sc.bestCW}
		}
	}
	consider(first.rank)
	used := 1
	for _, s := range samples[1:] {
		if err := tick.Tick(); err != nil {
			return mwkOutcome{}, err
		}
		used++
		updated := false
		//wqrtq:bounded one distance per why-not vector; the enclosing sample loop ticks
		for i := range wm {
			if ranks[i] <= k {
				continue
			}
			if d := vec.WeightDist(wm[i], s.w); d < dist[i] {
				cw[i] = s.w
				dist[i] = d
				updated = true
			}
		}
		if updated {
			consider(s.rank)
		}
	}
	sc.cw = cw
	best.SamplesUsed = used
	return best, nil
}

func cloneWeights(ws []vec.Weight) []vec.Weight {
	out := make([]vec.Weight, len(ws))
	for i, w := range ws {
		out[i] = vec.CloneWeight(w)
	}
	return out
}
