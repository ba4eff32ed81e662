package rtopk

import (
	"context"

	"wqrtq/internal/kernel"
	"wqrtq/internal/vec"
)

// CoordsCutoff is the candidate-set size up to which the blocked counting
// evaluation is preferred over the RTA loop: below it, sweeping every
// candidate once per kernel.BlockSize weights costs less than the
// per-vector branch-and-bound top-k evaluations (plus their heap traffic)
// that RTA runs for non-pruned vectors, and the flattened image stays
// cache-resident. (The refinement sampling loops have no such line: their
// counts are capped at k'max, so they sweep at every candidate-set size.)
const CoordsCutoff = 8192

// BichromaticCoordsCtx answers the bichromatic reverse top-k query by
// blocked counting over a flattened candidate set: w belongs to the result
// iff fewer than k candidates score strictly below f(w, q) (ties won by q,
// Definition 2).
//
// The candidate set must be count-preserving for the query's k — the full
// dataset, or a k-skyband of it: a k-skyband count equals the dataset's
// strict-beat count whenever that count is below k, and is at least k
// whenever the dataset's is (any point with >= k beaters has >= k of them
// inside the k-skyband), so the membership test count < k decides exactly
// as the full dataset would. Results are therefore identical to the RTA
// loop over the same snapshot, while the evaluation is one blocked sweep
// of the candidate columns per kernel.BlockSize weights instead of one
// branch-and-bound top-k per non-pruned vector.
//
// Stats report every vector as evaluated and none pruned: the blocked
// sweep has no threshold buffer — counting all candidates for a block of
// weights is the cheaper operation precisely where the candidate set is
// small, which the caller ensures via CoordsCutoff before routing here.
func BichromaticCoordsCtx(ctx context.Context, c *kernel.Coords, W []vec.Weight, q vec.Point, k int, ct *kernel.Counters) ([]int, Stats, error) {
	var stats Stats
	if len(W) == 0 {
		return nil, stats, ctx.Err()
	}
	stats.Evaluated = len(W)
	sc := kernel.GetScratch()
	defer kernel.PutScratch(sc)
	fqs := make([]float64, len(W))
	counts := make([]int, len(W))
	//wqrtq:bounded one Score per weight; the blocked count sweep below carries ctx
	for i, w := range W {
		fqs[i] = vec.Score(w, q)
	}
	err := kernel.CountBelowWeightsCtx(ctx, c, len(W), func(i int) []float64 { return W[i] }, fqs, counts, sc, ct)
	if err != nil {
		return nil, stats, err
	}
	var result []int
	for i, cnt := range counts {
		if cnt < k {
			result = append(result, i)
		}
	}
	return result, stats, nil
}
