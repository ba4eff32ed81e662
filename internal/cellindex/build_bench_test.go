package cellindex

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wqrtq/internal/rtree"
	"wqrtq/internal/skyband"
)

// BenchmarkGridBuild times one grid build over the 10-skyband of uniform
// n = 100k, d = 3 data (589 points): the build a dropped band costs.
func BenchmarkGridBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	band := skyband.NewCache(rtree.Bulk(testPoints(rng, 100000, 3), nil), nil).Band(10)
	basis := band.Coords()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Build(basis, 10) == nil {
			b.Fatal("grid declined")
		}
	}
}

// TestKthSmallest holds the build's selection to a sort, over inputs with
// duplicates and signed zeros.
func TestKthSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		v := make([]float64, n)
		for i := range v {
			switch rng.Intn(4) {
			case 0:
				v[i] = float64(rng.Intn(5))
			case 1:
				v[i] = math.Copysign(0, -1)
			default:
				v[i] = rng.Float64()
			}
		}
		sorted := slices.Clone(v)
		slices.Sort(sorted)
		k := 1 + rng.Intn(n)
		if got := kthSmallest(slices.Clone(v), k); got != sorted[k-1] {
			t.Fatalf("%v: k=%d got %v, want %v", v, k, got, sorted[k-1])
		}
	}
}
