package core

import (
	"wqrtq/internal/rtree"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// VerifyRefinement checks the defining property of a refined reverse top-k
// query: every weighting vector in wm ranks q within its top-k (ties won by
// q). It is the acceptance test shared by all three solutions:
//
//	MQP:  VerifyRefinement(t, q', k, Wm)
//	MWK:  VerifyRefinement(t, q, k', Wm')
//	MQWK: VerifyRefinement(t, q', k', Wm')
func VerifyRefinement(t *rtree.Tree, q vec.Point, k int, wm []vec.Weight) bool {
	for _, w := range wm {
		if !topk.InTopK(t, w, q, k) {
			return false
		}
	}
	return true
}
