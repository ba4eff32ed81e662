package skyband

import (
	"testing"

	"wqrtq/internal/dataset"
)

// BenchmarkSkybandBuild times one whole band build (compute with no limit)
// over the snapshot tree of each shape the serving benchmarks and DESIGN §9
// use: uniform d = 3 at the three band parameters a why-not warm-up builds,
// the NBA-like d = 13 band of the reverse top-k workload, anticorrelated
// d = 4 (the largest bands) and household-like d = 6.
func BenchmarkSkybandBuild(b *testing.B) {
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
		k    int
	}{
		{"UN_n=100k_d=3_k=10", dataset.Independent(100000, 3, 1), 10},
		{"UN_n=100k_d=3_k=64", dataset.Independent(100000, 3, 1), 64},
		{"UN_n=100k_d=3_k=128", dataset.Independent(100000, 3, 1), 128},
		{"NBA-like_n=17265_d=13_k=10", dataset.NBALike(17265, 1), 10},
		{"NBA-like_n=17265_d=13_k=128", dataset.NBALike(17265, 1), 128},
		{"AC_n=100k_d=4_k=10", dataset.Anticorrelated(100000, 4, 1), 10},
		{"household-like_n=20k_d=6_k=10", dataset.HouseholdLike(20000, 1), 10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tr := tc.ds.Tree()
			var band *Band
			for b.Loop() {
				band, _ = compute(tr, tc.k, tr.Len())
			}
			b.ReportMetric(float64(band.Size()), "members")
		})
	}
}
