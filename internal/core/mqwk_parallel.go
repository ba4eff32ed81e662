package core

import (
	"context"
	"runtime"
	"sync"

	"wqrtq/internal/dominance"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// MQWKParallel is MQWK with the per-sample MWK searches spread over
// worker goroutines. The sample query points are independent once the
// candidate cache is built (the §4.4 reuse technique makes each evaluation
// a pure in-memory computation), so the paper's most expensive algorithm
// parallelizes embarrassingly.
//
// Determinism: each sample point i draws its weight samples from its own
// rand.Rand seeded with seed+i, so results are reproducible regardless of
// scheduling, and identical across worker counts.
//
// This addresses the paper's closing direction — "we would like to explore
// why-not questions on reverse top-k queries over larger datasets" (§6) —
// with the orthogonal axis available in a shared-memory implementation.
//
// Every worker polls the shared ctx before each sample query point and
// inside its sampling loops, so one cancellation unwinds the whole fan-out.
// src is as for MQWK; results stay identical across worker counts and to
// the nil-Source path.
func MQWKParallel(ctx context.Context, t *rtree.Tree, src *Source, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, seed int64, workers int, pm PenaltyModel) (MQWKResult, error) {
	qMin, err := mqwkQMin(ctx, t, src, q, k, wm, qSampleSize, pm)
	if err != nil {
		return MQWKResult{}, err
	}
	prep := getRankScratch()
	defer putRankScratch(prep)
	cands, _ := prep.candidates(t, src, q, qMin, wm, qSampleSize+1)
	return mqwkParallelResolved(ctx, src, prep, qMin, cands, q, k, wm, sampleSize, qSampleSize, seed, workers, pm)
}

// mqwkParallelResolved is the parallel sampling search given the MQP
// optimum and the candidate cache (shared with the fused why-not
// pipeline, like mqwkResolved). prep is the coordinator's scratch, whose
// universe — prepared once over cands — every worker adopts read-only.
// workers <= 0 resolves to GOMAXPROCS.
func mqwkParallelResolved(ctx context.Context, src *Source, prep *rankScratch, qMin vec.Point, cands []dominance.Ref, q vec.Point, k int, wm []vec.Weight, sampleSize, qSampleSize int, seed int64, workers int, pm PenaltyModel) (MQWKResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Endpoint candidates and sample points, all drawn up front so the
	// parallel phase is pure computation.
	points := make([]vec.Point, 0, qSampleSize+1)
	points = append(points, vec.Clone(q))
	boxRng := getRng(seed)
	points = append(points, sample.Box(boxRng, qMin, q, qSampleSize)...)
	putRng(boxRng)

	type cand struct {
		res MQWKResult
		err error
		ok  bool
	}
	results := make([]cand, len(points))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers draw from the shared scratch pool rather than
			// allocating per call, so repeated MQWK requests reuse the
			// same warm classification/kernel/draw buffers across the
			// fan-out.
			sc := getRankScratch()
			defer putRankScratch(sc)
			sc.uni = prep.uni // the coordinator's, read-only from here on
			jobRng := getRng(1)
			defer putRng(jobRng)
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					results[i] = cand{err: err}
					continue
				}
				qp := points[i]
				jobRng.Seed(seed + int64(i) + 1)
				wk, err := mwkSearch(ctx, newRankEval(src, sc, cands, qp), k, wm, sampleSize, jobRng, pm)
				if err != nil {
					results[i] = cand{err: err}
					continue
				}
				// The outcome aliases the worker's scratch, which the
				// next job overwrites: copy it out now.
				results[i] = cand{
					res: MQWKResult{
						RefinedQ:  qp,
						RefinedWm: cloneWeights(wk.refined),
						RefinedK:  wk.RefinedK,
						Penalty:   pm.Gamma*pm.QPenalty(q, qp) + pm.Lambda*wk.Penalty,
					},
					ok: true,
				}
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	best := mqwkBest(qMin, len(cands), q, k, wm, pm)
	for _, c := range results {
		if c.err != nil {
			return MQWKResult{}, c.err
		}
		if c.ok && c.res.Penalty < best.Penalty {
			best.RefinedQ = c.res.RefinedQ
			best.RefinedWm = c.res.RefinedWm
			best.RefinedK = c.res.RefinedK
			best.Penalty = c.res.Penalty
		}
	}
	return best, nil
}
