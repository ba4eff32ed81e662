package dominance

import (
	"sort"
	"wqrtq/internal/feq"

	"wqrtq/internal/vec"
)

// BandPoint is one member of a k-skyband: the position of the point in the
// input slice and its exact dominance count (the number of input points
// dominating it, always < k for a member).
type BandPoint struct {
	Index int
	Count int
}

// KSkybandLimit returns the k-skyband of the point set: every point
// dominated by fewer than k other points, with its exact dominance count,
// sorted by input index, and true. The 1-skyband is the skyline.
//
// Why this set matters (Vlachou et al., "Reverse top-k queries"): under any
// weighting vector w (non-negative, summing to 1) a point p with dominance
// count >= k has at least k points scoring no worse than it under w, and the
// k smallest scores of the dataset are always achieved within the k-skyband.
// Every top-k result, every top k-th score, and every strict-beat count
// below k is therefore answerable from the k-skyband alone — the candidate
// set behind the sub-index in internal/skyband.
//
// The computation is the classic sort-filter: points are ordered by
// ascending coordinate sum (a dominating point always has a strictly
// smaller sum), and each point counts its dominators among the band members
// kept so far. That count is exact for members: if p's true dominance count
// is below k, none of its dominators can have k dominators themselves (each
// dominator of a dominator also dominates p), so all of them were kept.
// Conversely a point with >= k dominators always sees at least k kept ones —
// order its dominators by sum; the i-th has at most i-1 dominators — so the
// filter never keeps a non-member.
//
// It gives up once the band is known to hold more than limit points
// (limit = len(points) never does): it then returns the members found so
// far — every one a true member with its exact count, by the sort-filter
// argument above, so the partial result is evidence that the band exceeds
// limit — and false. The filter costs one dominance test per (point, kept member)
// pair, so abandoning at limit bounds the work by about n·limit tests
// whatever the band's final size would have been; internal/skyband uses it
// for bands that are only worth having while they stay small.
func KSkybandLimit(points []vec.Point, k, limit int) ([]BandPoint, bool) {
	if len(points) == 0 || k <= 0 {
		return nil, true
	}
	order := make([]int, len(points))
	sums := make([]float64, len(points))
	for i, p := range points {
		order[i] = i
		s := 0.0
		for _, v := range p {
			s += v
		}
		sums[i] = s
	}
	sort.Slice(order, func(a, b int) bool {
		if feq.Ne(sums[order[a]], sums[order[b]]) {
			return sums[order[a]] < sums[order[b]]
		}
		return order[a] < order[b]
	})
	kept := make([]int, 0, len(points))
	out := make([]BandPoint, 0, len(points))
	for _, idx := range order {
		p := points[idx]
		cnt := 0
		for _, j := range kept {
			if vec.Dominates(points[j], p) {
				cnt++
				if cnt >= k {
					break
				}
			}
		}
		if cnt < k {
			kept = append(kept, idx)
			out = append(out, BandPoint{Index: idx, Count: cnt})
			if len(out) > limit {
				break
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out, len(out) <= limit
}

// KSkybandNaive is the quadratic reference implementation for tests: it
// counts every point's dominators by full scan.
func KSkybandNaive(points []vec.Point, k int) []BandPoint {
	if k <= 0 {
		return nil
	}
	var out []BandPoint
	for i, p := range points {
		cnt := 0
		for j, o := range points {
			if i != j && vec.Dominates(o, p) {
				cnt++
			}
		}
		if cnt < k {
			out = append(out, BandPoint{Index: i, Count: cnt})
		}
	}
	return out
}
