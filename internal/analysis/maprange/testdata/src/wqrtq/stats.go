// Package wqrtq exercises the maprange analyzer inside a gated
// answer-assembly import path.
package wqrtq

func Sum(m map[string]int) int {
	s := 0
	for _, v := range m { // want `map iteration order is randomized`
		s += v
	}
	return s
}

// SumAllowed carries the allowlist directive: clean.
func SumAllowed(m map[string]int) int {
	s := 0
	//wqrtq:unordered summing int counters; result is order-free
	for _, v := range m {
		s += v
	}
	return s
}

// SumSlice ranges over a slice: clean.
func SumSlice(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}

// WalkGroups is the audit's plant in rtopk.BichromaticCtx (DESIGN.md
// §11): the weights are grouped by their heaviest coordinate and the
// groups walked in map order. The result is sorted afterwards, so only
// the pruning counts follow the order, and the test suite passes.
func WalkGroups(ws [][]float64) (order []int) {
	groups := make(map[int][]int)
	for i, w := range ws {
		g := 0
		for j, v := range w {
			if v > w[g] {
				g = j
			}
		}
		groups[g] = append(groups[g], i)
	}
	for _, g := range groups { // want `map iteration order is randomized`
		order = append(order, g...)
	}
	return order
}
