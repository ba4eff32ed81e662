package topk_test

// The capped count descent is the reverse top-k product path below the cell
// grid (rtopk.BichromaticCountCtx): one call per weighting vector, over a
// k-skyband tree. The guard and the benchmark run it the way that loop does
// — one shared ticker, many descents — on the two shapes the scoreboard
// serves, uniform d = 3 and NBA-like d = 13, and the benchmark also on
// household-like d = 6, the paper's third dimensionality. (External test
// package: dataset and skyband import topk.)

import (
	"context"
	"fmt"
	"math"
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

// renormalize scales w in place so its components sum to 1.
func renormalize(w vec.Weight) {
	s := 0.0
	for _, v := range w {
		s += v
	}
	for i := range w {
		w[i] /= s
	}
}

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

// BenchmarkCountBelowCapped runs the descent over each shape's production
// band tree ("band") and over the same band points bulk-loaded at fixed
// fanouts ("fanout=N"): the sweep skyband's bandFanout is read from.
func BenchmarkCountBelowCapped(b *testing.B) {
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"UN_n=100k_d=3", dataset.Independent(100000, 3, 1)},
		{"household-like_n=20k_d=6", dataset.HouseholdLike(20000, 1)},
		{"NBA-like_n=17265_d=13", dataset.NBALike(17265, 1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			band, ws, fqs := countWorkload(b, tc.ds)
			var pts []vec.Point
			band.Visit(func(rtree.Rect, *rtree.Node) bool { return true }, func(_ int32, p vec.Point) { pts = append(pts, p) })
			type arm struct {
				name string
				tree *rtree.Tree
			}
			arms := []arm{{"band", band}}
			for _, f := range []int{8, 12, 16, 24, 32} {
				arms = append(arms, arm{fmt.Sprintf("fanout=%d", f), rtree.Bulk(pts, nil, rtree.Options{PageSize: rtree.PageSizeFor(tc.ds.Dim, f)})})
			}
			for _, tr := range arms {
				b.Run(tr.name, func(b *testing.B) {
					var tick ctxcheck.Ticker
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						j := i % len(ws)
						if _, err := topk.CountBelowCapped(tr.tree, ws[j], fqs[j], countK, &tick); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// checkCountDescents holds the capped and uncapped count descents of a tree
// bulk-loaded at fanout over n points of shape d to a linear vec.Score
// scan. A third of the points are copies of others, some weighting vectors
// have zero components, and each threshold is a point's own score, so
// ties are reached; each capped count must be exact below its bound and at
// least the bound (never more than the exact count) at it.
func checkCountDescents(t *testing.T, seed int64, d, fanout, n int) {
	rng := rand.New(rand.NewSource(seed))
	pts := dataset.Independent(n, d, seed).Points
	for i := 0; i < n/3; i++ {
		pts[rng.Intn(n)] = pts[rng.Intn(n)]
	}
	tree := rtree.Bulk(pts, nil, rtree.Options{PageSize: rtree.PageSizeFor(d, fanout)})
	if tree.MaxEntries() != fanout {
		t.Fatalf("d=%d: tree fanout %d, want %d", d, tree.MaxEntries(), fanout)
	}
	ctx := context.Background()
	var tick ctxcheck.Ticker
	for trial := 0; trial < 24; trial++ {
		w := sample.RandSimplex(rng, d)
		if trial%4 == 0 {
			w[rng.Intn(d)] = 0
			renormalize(w)
		}
		fq := vec.Score(w, pts[rng.Intn(n)])
		want := 0
		for _, p := range pts {
			if vec.Score(w, p) < fq {
				want++
			}
		}
		if got, err := topk.CountBelowCtx(ctx, tree, w, fq); err != nil || got != want {
			t.Fatalf("d=%d fanout=%d n=%d: CountBelowCtx = %d, %v; linear scan %d", d, fanout, n, got, err, want)
		}
		if got := topk.Rank(tree, w, fq); got != want+1 {
			t.Fatalf("d=%d fanout=%d n=%d: Rank = %d, linear scan %d", d, fanout, n, got, want+1)
		}
		for _, bound := range []int{1, 2, 1 + rng.Intn(n+1), want, want + 1, math.MaxInt} {
			if bound <= 0 {
				continue
			}
			got, err := topk.CountBelowCapped(tree, w, fq, bound, &tick)
			if err != nil {
				t.Fatal(err)
			}
			if want < bound && got != want || want >= bound && (got < bound || got > want) {
				t.Fatalf("d=%d fanout=%d n=%d: capped at %d: %d, linear scan %d", d, fanout, n, bound, got, want)
			}
			if cnt, capped, err := topk.CountBelowCappedCtx(ctx, tree, w, fq, bound); err != nil || cnt != got || capped != (want >= bound) {
				t.Fatalf("d=%d fanout=%d n=%d: CountBelowCappedCtx at %d = %d, %v, %v; descent %d, linear scan %d", d, fanout, n, bound, cnt, capped, err, got, want)
			}
		}
	}
}

// TestCountBelowCappedDifferential covers every remainder of the four-wide
// groups (fanouts 4, 5, 7, 16, 18 and 72: the band trees' 16, the full
// tree's 72 at d = 3 and 18 at d = 13) at d = 2, 3, 6 and 13, over trees
// from one leaf to several levels deep.
func TestCountBelowCappedDifferential(t *testing.T) {
	for _, d := range []int{2, 3, 6, 13} {
		for _, fanout := range []int{4, 5, 7, 16, 18, 72} {
			for i, n := range []int{1, 3, fanout + 3, 700} {
				checkCountDescents(t, int64(100*d+fanout+i), d, fanout, n)
			}
		}
	}
}

// FuzzCountBelowCapped is TestCountBelowCappedDifferential's property over
// any d in [2, 16], fanout in [4, 72] and n in [1, 600].
func FuzzCountBelowCapped(f *testing.F) {
	//          seed      d-2        fanout-4    n-1
	f.Add(int64(1), uint8(1), uint8(12), uint16(599))
	f.Add(int64(2), uint8(11), uint8(0), uint16(300))
	f.Add(int64(3), uint8(4), uint8(3), uint16(40))
	f.Add(int64(4), uint8(0), uint8(68), uint16(0))
	f.Add(int64(5), uint8(14), uint8(14), uint16(17))
	f.Fuzz(func(t *testing.T, seed int64, db, fb uint8, nb uint16) {
		checkCountDescents(t, seed, 2+int(db%15), 4+int(fb%69), 1+int(nb%600))
	})
}
