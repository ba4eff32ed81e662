package topk_test

// The capped count descent is the reverse top-k product path below the cell
// grid (rtopk.BichromaticCountCtx): one call per weighting vector, over a
// k-skyband tree. The guard and the benchmark run it the way that loop does
// — one shared ticker, many descents — on the two shapes the scoreboard
// serves: uniform d = 3 and NBA-like d = 13. (External test package:
// dataset and skyband import topk.)

import (
	"context"
	"math/rand"
	"testing"

	"wqrtq/internal/ctxcheck"
	"wqrtq/internal/dataset"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

const countK = 10

// countWorkload is a countK-skyband tree plus 256 (w, f(w, q)) pairs whose
// query points are the countK-th best under a neighbouring vector, so the
// descents mix members (counted to completion) and capped non-members.
func countWorkload(tb testing.TB, ds *dataset.Dataset) (*rtree.Tree, []vec.Weight, []float64) {
	tb.Helper()
	band := skyband.NewCache(ds.Tree(), nil).Band(countK).Tree()
	rng := rand.New(rand.NewSource(5))
	ws := make([]vec.Weight, 256)
	for i := range ws {
		ws[i] = sample.RandSimplex(rng, ds.Dim)
	}
	fqs := make([]float64, len(ws))
	for i, w := range ws {
		kth, ok := topk.KthPoint(band, ws[(i+1)%len(ws)], countK)
		if !ok {
			tb.Fatal("band smaller than k")
		}
		fqs[i] = vec.Score(w, kth.Point)
	}
	return band, ws, fqs
}

func TestCountBelowCappedAllocsPerOp(t *testing.T) {
	for _, ds := range []*dataset.Dataset{dataset.Independent(5000, 3, 1), dataset.NBALike(2000, 1)} {
		band, ws, fqs := countWorkload(t, ds)
		ctx, cancel := context.WithCancel(context.Background())
		tick := ctxcheck.Every(ctx, 16)
		capped := 0
		descend := func() {
			capped = 0
			for i, w := range ws {
				cnt, err := topk.CountBelowCapped(band, w, fqs[i], countK, &tick)
				if err != nil {
					t.Fatal(err)
				}
				if cnt >= countK {
					capped++
				}
			}
		}
		allocs := testing.AllocsPerRun(20, descend)
		cancel()
		if allocs != 0 {
			t.Fatalf("d=%d: %.1f allocations per %d descents, want 0", ds.Dim, allocs, len(ws))
		}
		if capped == 0 || capped == len(ws) {
			t.Fatalf("d=%d: workload is one-sided: %d of %d descents capped", ds.Dim, capped, len(ws))
		}
	}
}

func BenchmarkCountBelowCapped(b *testing.B) {
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"UN_n=100k_d=3", dataset.Independent(100000, 3, 1)},
		{"NBA-like_n=17265_d=13", dataset.NBALike(17265, 1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			band, ws, fqs := countWorkload(b, tc.ds)
			var tick ctxcheck.Ticker
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(ws)
				if _, err := topk.CountBelowCapped(band, ws[j], fqs[j], countK, &tick); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
