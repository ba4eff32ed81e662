package dominance

import (
	"sort"

	"wqrtq/internal/vec"
)

// Skyline returns the indices of the skyline (Pareto-optimal) points: those
// dominated by no other point. The skyline is exactly the set of points
// that can rank first under some monotone preference, and bounds the
// reverse top-1 result; it is computed here with the classic sort-filter
// approach (sort by attribute sum ascending — no point can be dominated by
// a point with a larger sum — then a block-nested-loop filter against the
// running skyline).
func Skyline(points []vec.Point) []int {
	if len(points) == 0 {
		return nil
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
		if sums[order[a]] != sums[order[b]] {
			return sums[order[a]] < sums[order[b]]
		}
		return order[a] < order[b]
	})
	var sky []int
	for _, idx := range order {
		p := points[idx]
		dominated := false
		for _, s := range sky {
			if vec.Dominates(points[s], p) || vec.Equal(points[s], p) {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, idx)
		}
	}
	sort.Ints(sky)
	return sky
}

// SkylineNaive is the quadratic reference implementation for tests.
func SkylineNaive(points []vec.Point) []int {
	var sky []int
	for i, p := range points {
		dominated := false
		for j, o := range points {
			if i == j {
				continue
			}
			if vec.Dominates(o, p) {
				dominated = true
				break
			}
			// Duplicate points: keep only the first occurrence.
			if vec.Equal(o, p) && j < i {
				dominated = true
				break
			}
		}
		if !dominated {
			sky = append(sky, i)
		}
	}
	return sky
}
