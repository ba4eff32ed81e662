// Package rtopk implements reverse top-k queries (Vlachou et al. [31]), the
// query class whose why-not questions WQRTQ answers.
//
// Bichromatic: given a finite weighting-vector set W, return every w ∈ W
// whose top-k result contains the query point q. Membership of w is a
// threshold count, not a top-k — do fewer than k points score strictly
// below f(w, q) — so the product evaluation (BichromaticCountCtx) is one
// capped, count-pruned R-tree descent per vector. The paper's own
// algorithm is kept beside it as an oracle: RTA (BichromaticCtx) evaluates
// vectors in sorted order and uses the top-k buffer of the previously
// evaluated vector as a pruning threshold — if k buffered points already
// score better than q under the next vector, that vector cannot be in the
// result and no top-k evaluation is needed.
//
// Monochromatic: in two dimensions the weighting space is the segment
// w = (λ, 1-λ), λ ∈ [0, 1], and the result is a union of intervals of λ
// (Figure 2(b) of the paper). The exact solution is computed with a sweep
// over the O(|P|) breakpoints where some point ties with q.
package rtopk

import (
	"context"
	"sort"
	"wqrtq/internal/feq"

	"wqrtq/internal/ctxcheck"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// checkInterval is how many weighting vectors a bichromatic loop examines
// between context polls. RTA's top-k evaluations additionally poll on their
// own heap-pop interval; the count descents tick the loop's own ticker once
// per tree node, so a long descent polls on the same interval.
const checkInterval = 16

// Stats reports the work done by one bichromatic evaluation. Evaluated
// and Pruned partition W. Under the count descent, Pruned is the vectors
// whose descent stopped at the k-th point beating q (non-members) and
// Evaluated the vectors counted to completion (the result's members);
// under RTA, Pruned is the vectors the buffer threshold rejected and
// Evaluated the ones that required a top-k evaluation.
type Stats struct {
	Evaluated int
	Pruned    int
	// CandidateSetSize is the number of indexed points each evaluation
	// ran against: the k-skyband size when the skyband sub-index served
	// the query, the full dataset size otherwise.
	CandidateSetSize int
}

// BichromaticCountCtx returns the indices into W of the weighting vectors
// whose top-k contains q (ties won by q): w is a member iff fewer than k
// points of t score strictly below f(w, q), decided by one
// topk.CountBelowCapped descent per vector — subtrees wholly above f(w, q)
// are skipped, subtrees wholly below it are counted through their node
// counts, and the descent stops at the k-th beater. t must be
// count-preserving for k: the full dataset or a k-skyband of it (see
// BichromaticCoordsCtx). All descents tick one ticker, once per node, so a
// canceled query returns ctx.Err() within checkInterval vectors or nodes,
// whichever the loop is spending its time on.
func BichromaticCountCtx(ctx context.Context, t *rtree.Tree, W []vec.Weight, q vec.Point, k int) ([]int, Stats, error) {
	stats := Stats{CandidateSetSize: t.Len()}
	tick := ctxcheck.Every(ctx, checkInterval)
	if err := tick.Err(); err != nil {
		return nil, stats, err
	}
	var result []int
	for wi, w := range W {
		cnt, err := topk.CountBelowCapped(t, w, vec.Score(w, q), k, &tick)
		if err != nil {
			return nil, stats, err
		}
		if cnt < k {
			stats.Evaluated++
			result = append(result, wi)
		} else {
			stats.Pruned++
		}
	}
	return result, stats, nil
}

// BichromaticCtx returns, by RTA, the indices into W of the weighting
// vectors whose top-k contains q (ties won by q), along with pruning
// statistics. The RTA loop polls ctx every checkInterval vectors, and each
// underlying top-k evaluation polls on its heap loop, so a canceled query
// unwinds mid-batch.
func BichromaticCtx(ctx context.Context, t *rtree.Tree, W []vec.Weight, q vec.Point, k int) ([]int, Stats, error) {
	stats := Stats{CandidateSetSize: t.Len()}
	if len(W) == 0 {
		return nil, stats, ctx.Err()
	}
	tick := ctxcheck.Every(ctx, checkInterval)
	// Evaluate in lexicographic weight order so consecutive vectors are
	// close and the buffer prunes well.
	order := make([]int, len(W))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return vec.Lexicographic(vec.Point(W[order[a]]), vec.Point(W[order[b]])) < 0
	})

	var result []int
	var buffer []topk.Result // top-k of the last fully evaluated vector
	for _, wi := range order {
		if err := tick.Tick(); err != nil {
			return nil, stats, err
		}
		w := W[wi]
		fq := vec.Score(w, q)
		if len(buffer) == k && k > 0 {
			// Threshold test: if every buffered point beats q under w, then
			// at least k points of P beat q, so w is not in the result.
			beats := 0
			//wqrtq:bounded threshold buffer holds at most k results
			for _, b := range buffer {
				if vec.Score(w, b.Point) < fq {
					beats++
				}
			}
			if beats >= k {
				stats.Pruned++
				continue
			}
		}
		stats.Evaluated++
		res, err := topk.TopKCtx(ctx, t, w, k)
		if err != nil {
			return nil, stats, err
		}
		buffer = res
		if len(res) < k || res[k-1].Score >= fq {
			// Fewer than k points, or the k-th best does not strictly beat
			// q: q is within the top-k (q wins ties, Definition 2).
			result = append(result, wi)
		}
	}
	sort.Ints(result)
	return result, stats, nil
}

// BichromaticNaive evaluates every vector independently by linear scan;
// ground truth for tests and the ablation baseline for benchmarks.
func BichromaticNaive(points []vec.Point, W []vec.Weight, q vec.Point, k int) []int {
	var result []int
	for wi, w := range W {
		if topk.RankNaive(points, w, vec.Score(w, q)) <= k {
			result = append(result, wi)
		}
	}
	return result
}

// Interval is a closed range [Lo, Hi] of the first weight component λ, with
// the second component 1-λ, describing part of a 2-D monochromatic result.
type Interval struct {
	Lo, Hi float64
}

// Monochromatic2D computes the exact monochromatic reverse top-k result for
// a 2-dimensional dataset: the maximal intervals of λ (with w = (λ, 1-λ))
// whose top-k contains q. Intervals with empty interior are not reported.
//
// q's rank is constant on each open segment between consecutive
// breakpoints (the λ values where some point ties with q), so the answer
// is a union of such segments. Membership of each segment is decided by
// evaluating the actual strict-beat count at the segment's midpoint — the
// same arithmetic MonoRank performs — rather than by accumulating the
// analytically derived ±1 coverage deltas of a sweep. The sweep was
// cheaper but fragile: a breakpoint is the root of f(w,p) = f(w,q) rounded
// to one float64, and on grid-quantized data the rounded root's
// re-evaluated tie could break either way, letting the event arithmetic
// drift from what score evaluation at any concrete λ reports. Midpoint
// evaluation makes the answer agree with MonoRank at every segment
// midpoint by construction. Membership asks only whether the count reaches
// k, so each segment's count is kernel.CountBelowCapped at cap k-1 over
// the flattened point set: a non-member segment stops at its k-th beater,
// and only member segments scan all n points.
func Monochromatic2D(points []vec.Point, q vec.Point, k int) []Interval {
	if len(q) != 2 {
		panic("rtopk: Monochromatic2D requires 2-dimensional data")
	}
	// Breakpoints: λ* = b/(b-a) per point with a = p[0]-q[0], b = p[1]-q[1]
	// (a != b), kept when strictly inside (0, 1).
	lams := make([]float64, 0, len(points)+2)
	for _, p := range points {
		a := p[0] - q[0]
		b := p[1] - q[1]
		if feq.Eq(a, b) {
			continue
		}
		if lam := b / (b - a); lam > 0 && lam < 1 {
			lams = append(lams, lam)
		}
	}
	sort.Float64s(lams)
	// Segment boundaries: 0, the distinct breakpoints, 1.
	bounds := make([]float64, 0, len(lams)+2)
	bounds = append(bounds, 0)
	for _, lam := range lams {
		if feq.Ne(lam, bounds[len(bounds)-1]) {
			bounds = append(bounds, lam)
		}
	}
	if feq.Ne(bounds[len(bounds)-1], 1) {
		bounds = append(bounds, 1)
	}

	// Decide every segment by the strict-beat count at its midpoint, and
	// merge consecutive member segments (count < k ⇔ rank <= k, ties won
	// by q) into maximal closed intervals; single-breakpoint memberships
	// between two non-member segments have empty interior and are not
	// representable, matching the documented contract.
	sc := kernel.GetScratch()
	defer kernel.PutScratch(sc)
	sc.Uni.Fill(2, len(points), func(i int) []float64 { return points[i] })
	var w [2]float64
	var out []Interval
	for i := 0; i+1 < len(bounds); i++ {
		mid := (bounds[i] + bounds[i+1]) / 2
		w[0], w[1] = mid, 1-mid
		// f(w, q) in vec.Score order.
		fq := mid * q[0]
		fq += (1 - mid) * q[1]
		if cnt, _ := kernel.CountBelowCapped(&sc.Uni, w[:], fq, k-1, 0, len(points)); cnt >= k {
			continue
		}
		if n := len(out); n > 0 && feq.Eq(out[n-1].Hi, bounds[i]) {
			out[n-1].Hi = bounds[i+1]
		} else {
			out = append(out, Interval{Lo: bounds[i], Hi: bounds[i+1]})
		}
	}
	return out
}

// MonoRank returns the rank of q at a specific λ in a 2-D dataset; exposed
// for verifying Monochromatic2D against direct evaluation.
func MonoRank(points []vec.Point, q vec.Point, lam float64) int {
	w := vec.Weight{lam, 1 - lam}
	return topk.RankNaive(points, w, vec.Score(w, q))
}
