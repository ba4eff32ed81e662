package rtopk

import (
	"context"

	"wqrtq/internal/kernel"
	"wqrtq/internal/vec"
)

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
// as the full dataset would. BichromaticCountCtx rests on the same
// argument.
//
// No query is routed here any more. The sweep is uncapped — every weight
// pays for every candidate — and used to serve d <= 4 bands of at most
// CoordsCutoff = 8192 points; the capped count descent beat it at every
// such shape (DESIGN.md §9), so the cutoff and the route are gone. The
// function stays because the benchmark harness times it
// (kernel.coords_rtopk_us); FuzzBichromaticCount keeps it honest.
//
// Stats report every vector as evaluated and none pruned.
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
