package rtree

import "wqrtq/internal/vec"

// BulkMatchesOracle builds a tree over pts with Bulk and with the
// entry-sorting oracle and reports their first difference, for the
// external tests that need packages importing this one.
func BulkMatchesOracle(pts []vec.Point, ids []int32, opts Options) error {
	return sameTree(Bulk(pts, ids, opts), oracleBulk(pts, ids, opts))
}
