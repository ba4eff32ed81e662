package rtree_test

import (
	"math/rand"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/rtree"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

// TestBulkMatchesEntrySortOracle pins Bulk's tree, node for node and bit
// for bit, to the entry-sorting oracle at the dimensionalities the product
// serves, on tie-free data and on an integer grid where most keys tie, at
// the default fanout and at the band trees' (skyband.TreeOptions), with
// point indices and with record ids.
func TestBulkMatchesEntrySortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, d := range []int{2, 3, 6, 13} {
		grid := make([]vec.Point, 20000)
		for i := range grid {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = float64(rng.Intn(6))
			}
			grid[i] = p
		}
		ids := make([]int32, len(grid))
		for i := range ids {
			ids[i] = int32(3*i + 1)
		}
		for _, in := range []struct {
			name string
			pts  []vec.Point
		}{
			{"tie-free", dataset.Independent(20000, d, int64(d)).Points},
			{"grid", grid},
		} {
			for _, o := range []struct {
				name string
				opts rtree.Options
			}{{"default", rtree.Options{}}, {"band", skyband.TreeOptions(d)}} {
				for _, withIDs := range []bool{false, true} {
					var use []int32
					if withIDs {
						use = ids
					}
					if err := rtree.BulkMatchesOracle(in.pts, use, o.opts); err != nil {
						t.Errorf("d=%d %s fanout %s ids=%v: %v", d, in.name, o.name, withIDs, err)
					}
				}
			}
		}
	}
}
