package wqrtq

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (Figures 7–12), each sweeping the same parameter as the figure and
// reporting ns/op (the paper's "total running time") plus the achieved
// penalty as a custom metric. Scales are reduced relative to Table 1 so the
// whole suite runs in minutes; cmd/experiments reproduces the full sweeps
// at configurable scale. EXPERIMENTS.md, the committed shape comparison, is
// pending under ROADMAP item 4.
//
// Ablation benchmarks cover the design choices called out in DESIGN.md §6:
// interior-point QP vs grid search, count-pruned rank counting vs scanning,
// MQWK's traversal reuse vs per-sample traversal, RTA buffer pruning vs
// naive reverse top-k, and STR bulk loading vs one-by-one insertion.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wqrtq/internal/core"
	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// Bench-scale defaults standing in for Table 1 (|P| 100K→20K, |S| 800→64).
const (
	benchN      = 20000
	benchDim    = 3
	benchK      = 10
	benchRank   = 101
	benchWm     = 1
	benchSample = 64
)

type benchEnv struct {
	ds *dataset.Dataset
	tr *rtree.Tree
	wl dataset.Workload
	pm core.PenaltyModel
}

var benchCache = map[string]*benchEnv{}

func env(b *testing.B, dist string, n, d, k, rank, nWm int) *benchEnv {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d/%d/%d/%d", dist, n, d, k, rank, nWm)
	if e, ok := benchCache[key]; ok {
		return e
	}
	ds, err := dataset.ByName(dist, n, d, 1)
	if err != nil {
		b.Fatal(err)
	}
	wl, err := dataset.MakeWhyNot(ds, k, rank, nWm, 1)
	if err != nil {
		b.Fatal(err)
	}
	e := &benchEnv{ds: ds, tr: ds.Tree(), wl: wl, pm: core.DefaultPenaltyModel()}
	benchCache[key] = e
	return e
}

// benchAlgos runs the three WQRTQ algorithms as sub-benchmarks of one cell.
func benchAlgos(b *testing.B, e *benchEnv, sampleSize int) {
	b.Run("MQP", func(b *testing.B) {
		var penalty float64
		for i := 0; i < b.N; i++ {
			res, err := core.MQP(context.Background(), e.tr, nil, e.wl.Q, e.wl.K, e.wl.Wm, e.pm)
			if err != nil {
				b.Fatal(err)
			}
			penalty = res.Penalty
		}
		b.ReportMetric(penalty, "penalty")
	})
	b.Run("MWK", func(b *testing.B) {
		var penalty float64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i + 1)))
			res, err := core.MWK(context.Background(), e.tr, nil, e.wl.Q, e.wl.K, e.wl.Wm, sampleSize, rng, e.pm)
			if err != nil {
				b.Fatal(err)
			}
			penalty = res.Penalty
		}
		b.ReportMetric(penalty, "penalty")
	})
	b.Run("MQWK", func(b *testing.B) {
		var penalty float64
		for i := 0; i < b.N; i++ {
			res, err := core.MQWK(context.Background(), e.tr, nil, e.wl.Q, e.wl.K, e.wl.Wm, sampleSize, sampleSize, int64(i+1), e.pm)
			if err != nil {
				b.Fatal(err)
			}
			penalty = res.Penalty
		}
		b.ReportMetric(penalty, "penalty")
	})
}

// BenchmarkFig07Dimensionality: WQRTQ cost vs. dimensionality (Figure 7).
func BenchmarkFig07Dimensionality(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5} {
		for _, dist := range []string{"independent", "anticorrelated"} {
			b.Run(fmt.Sprintf("%s/d=%d", dist, d), func(b *testing.B) {
				benchAlgos(b, env(b, dist, benchN, d, benchK, benchRank, benchWm), benchSample)
			})
		}
	}
}

// BenchmarkFig08Cardinality: WQRTQ cost vs. dataset cardinality (Figure 8).
func BenchmarkFig08Cardinality(b *testing.B) {
	for _, n := range []int{10000, 50000, 100000} {
		for _, dist := range []string{"independent", "anticorrelated"} {
			b.Run(fmt.Sprintf("%s/n=%d", dist, n), func(b *testing.B) {
				benchAlgos(b, env(b, dist, n, benchDim, benchK, benchRank, benchWm), benchSample)
			})
		}
	}
}

// BenchmarkFig09K: WQRTQ cost vs. k (Figure 9).
func BenchmarkFig09K(b *testing.B) {
	for _, k := range []int{10, 30, 50} {
		for _, dist := range []string{"household", "nba", "independent", "anticorrelated"} {
			b.Run(fmt.Sprintf("%s/k=%d", dist, k), func(b *testing.B) {
				benchAlgos(b, env(b, dist, benchN, benchDim, k, benchRank, benchWm), benchSample)
			})
		}
	}
}

// BenchmarkFig10Rank: WQRTQ cost vs. actual ranking of q under Wm
// (Figure 10).
func BenchmarkFig10Rank(b *testing.B) {
	for _, rank := range []int{11, 101, 1001} {
		for _, dist := range []string{"household", "nba", "independent", "anticorrelated"} {
			b.Run(fmt.Sprintf("%s/rank=%d", dist, rank), func(b *testing.B) {
				benchAlgos(b, env(b, dist, benchN, benchDim, benchK, rank, benchWm), benchSample)
			})
		}
	}
}

// BenchmarkFig11WmSize: WQRTQ cost vs. |Wm| (Figure 11).
func BenchmarkFig11WmSize(b *testing.B) {
	for _, m := range []int{1, 3, 5} {
		for _, dist := range []string{"household", "nba", "independent", "anticorrelated"} {
			b.Run(fmt.Sprintf("%s/wm=%d", dist, m), func(b *testing.B) {
				benchAlgos(b, env(b, dist, benchN, benchDim, benchK, benchRank, m), benchSample)
			})
		}
	}
}

// BenchmarkFig12SampleSize: WQRTQ cost vs. sample size (Figure 12). MQP is
// included even though it ignores the sample size — exactly as in the
// paper's figure, where its curve is flat.
func BenchmarkFig12SampleSize(b *testing.B) {
	for _, s := range []int{16, 64, 256} {
		for _, dist := range []string{"household", "nba", "independent", "anticorrelated"} {
			b.Run(fmt.Sprintf("%s/S=%d", dist, s), func(b *testing.B) {
				benchAlgos(b, env(b, dist, benchN, benchDim, benchK, benchRank, benchWm), s)
			})
		}
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

// BenchmarkAblationQPvsGrid compares MQP's exact safe-region projection
// against a brute-force grid search over the 2-D box [0, q] (the naive
// alternative to solving the quadratic program).
func BenchmarkAblationQPvsGrid(b *testing.B) {
	e := env(b, "independent", benchN, 2, benchK, benchRank, benchWm)
	b.Run("ExactProjection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MQP(context.Background(), e.tr, nil, e.wl.Q, e.wl.K, e.wl.Wm, e.pm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("GridSearch", func(b *testing.B) {
		kth := make([]topk.Result, len(e.wl.Wm))
		for i, w := range e.wl.Wm {
			kth[i], _ = topk.KthPoint(e.tr, w, e.wl.K)
		}
		for i := 0; i < b.N; i++ {
			gridSearchQ(e.wl.Q, e.wl.Wm, kth, 200)
		}
	})
}

// gridSearchQ scans a uniform grid of the box [0, q] for the feasible point
// closest to q.
func gridSearchQ(q vec.Point, wm []vec.Weight, kth []topk.Result, steps int) vec.Point {
	best := vec.Point(nil)
	bestDist := -1.0
	cur := make(vec.Point, len(q))
	for i := 0; i <= steps; i++ {
		cur[0] = q[0] * float64(i) / float64(steps)
		for j := 0; j <= steps; j++ {
			cur[1] = q[1] * float64(j) / float64(steps)
			ok := true
			for m, w := range wm {
				if vec.Score(w, cur) > kth[m].Score {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			d := vec.Dist(cur, q)
			if bestDist < 0 || d < bestDist {
				bestDist = d
				best = vec.Clone(cur)
			}
		}
	}
	return best
}

// BenchmarkAblationRankCounting compares the count-pruned rank search
// against a progressive scan and a linear scan.
func BenchmarkAblationRankCounting(b *testing.B) {
	e := env(b, "independent", benchN, benchDim, benchK, benchRank, benchWm)
	w := e.wl.Wm[0]
	fq := vec.Score(w, e.wl.Q)
	b.Run("CountPruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topk.Rank(e.tr, w, fq)
		}
	})
	b.Run("ProgressiveScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it := topk.NewIteratorCtx(context.Background(), e.tr, w)
			r := 1
			for {
				res, ok := it.Next()
				if !ok || res.Score >= fq {
					break
				}
				r++
			}
		}
	})
	b.Run("LinearScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			topk.RankNaive(e.ds.Points, w, fq)
		}
	})
}

// BenchmarkAblationReuse isolates the §4.4 reuse technique: classifying a
// cached candidate set per sample query point versus re-traversing the
// R-tree for each.
func BenchmarkAblationReuse(b *testing.B) {
	e := env(b, "independent", benchN, benchDim, benchK, benchRank, benchWm)
	rng := rand.New(rand.NewSource(1))
	mqp, err := core.MQP(context.Background(), e.tr, nil, e.wl.Q, e.wl.K, e.wl.Wm, e.pm)
	if err != nil {
		b.Fatal(err)
	}
	qSamples := sample.Box(rng, mqp.RefinedQ, e.wl.Q, 32)
	b.Run("WithReuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cands, _ := dominance.Candidates(e.tr, e.wl.Q)
			for _, qp := range qSamples {
				dominance.Classify(cands, qp)
			}
		}
	})
	b.Run("WithoutReuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, qp := range qSamples {
				dominance.FindIncom(e.tr, qp)
			}
		}
	})
}

// BenchmarkAblationRTA compares buffer-pruned bichromatic reverse top-k
// against naive per-vector evaluation.
func BenchmarkAblationRTA(b *testing.B) {
	e := env(b, "independent", benchN, benchDim, benchK, benchRank, benchWm)
	rng := rand.New(rand.NewSource(2))
	W := make([]vec.Weight, 200)
	for i := range W {
		W[i] = sample.RandSimplex(rng, benchDim)
	}
	b.Run("RTA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtopk.BichromaticCtx(context.Background(), e.tr, W, e.wl.Q, e.wl.K)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtopk.BichromaticNaive(e.ds.Points, W, e.wl.Q, e.wl.K)
		}
	})
}

// BenchmarkAblationBulkLoad compares STR packing against one-by-one R*
// insertion.
func BenchmarkAblationBulkLoad(b *testing.B) {
	ds := dataset.Independent(benchN, benchDim, 3)
	b.Run("STR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rtree.Bulk(ds.Points, nil)
		}
	})
	b.Run("Insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := rtree.New(benchDim)
			for j, p := range ds.Points {
				tr.Insert(p, int32(j))
			}
		}
	})
}

// BenchmarkLoadCSV times what a server pays to load its dataset before it
// serves, the in-process counterpart of the scoreboard's setup_s: reading
// a 100k × 3 UN CSV (the shape of the un3 workloads' data) with
// dataset.ReadCSV, and NewIndex over its rows, as cmd/wqrtq's loadIndex
// does. read_ms and index_ms split the op.
func BenchmarkLoadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := dataset.Independent(100000, 3, 1).WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "data.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	var read, index time.Duration
	for b.Loop() {
		start := time.Now()
		raw, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := dataset.ReadCSV(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		mid := time.Now()
		pts := make([][]float64, len(ds.Points))
		for i, p := range ds.Points {
			pts[i] = p
		}
		if _, err := NewIndex(pts); err != nil {
			b.Fatal(err)
		}
		read += mid.Sub(start)
		index += time.Since(mid)
	}
	b.ReportMetric(read.Seconds()*1e3/float64(b.N), "read_ms")
	b.ReportMetric(index.Seconds()*1e3/float64(b.N), "index_ms")
}

// --- Micro-benchmarks of the substrates -------------------------------------

// TestTopKAllocsPerOp guards the heap-loop allocation work: the branch-
// and-bound search recycles its heap through a pool and keeps heap items
// pointer-light, so one bounded top-k costs a handful of allocations (the
// result slice, the iterator, and amortized pool/heap growth) instead of
// one boxed heap entry per visited tree entry. A regression here silently
// multiplies the cost of every RTA evaluation.
func TestTopKAllocsPerOp(t *testing.T) {
	ds := dataset.Independent(5000, benchDim, 1)
	tr := ds.Tree()
	w := vec.Weight{0.2, 0.3, 0.5}
	topk.TopK(tr, w, benchK) // warm the heap pool
	allocs := testing.AllocsPerRun(200, func() {
		topk.TopK(tr, w, benchK)
	})
	// Measured ~3 allocs/op; 6 leaves headroom for runtime variation while
	// still failing fast if per-entry boxing ever returns (hundreds).
	if allocs > 6 {
		t.Fatalf("topk.TopK allocates %.1f objects per op, want <= 6", allocs)
	}
	fq := vec.Score(w, vec.Point{0.3, 0.3, 0.3})
	rankAllocs := testing.AllocsPerRun(200, func() {
		topk.Rank(tr, w, fq)
	})
	if rankAllocs > 1 {
		t.Fatalf("topk.Rank allocates %.1f objects per op, want <= 1", rankAllocs)
	}
}

func BenchmarkMicroTopK(b *testing.B) {
	e := env(b, "independent", benchN, benchDim, benchK, benchRank, benchWm)
	w := e.wl.Wm[0]
	for i := 0; i < b.N; i++ {
		topk.TopK(e.tr, w, benchK)
	}
}

func BenchmarkMicroKthPoint(b *testing.B) {
	e := env(b, "independent", benchN, benchDim, benchK, benchRank, benchWm)
	w := e.wl.Wm[0]
	for i := 0; i < b.N; i++ {
		topk.KthPoint(e.tr, w, benchK)
	}
}

func BenchmarkMicroFindIncom(b *testing.B) {
	e := env(b, "independent", benchN, benchDim, benchK, benchRank, benchWm)
	for i := 0; i < b.N; i++ {
		dominance.FindIncom(e.tr, e.wl.Q)
	}
}

func BenchmarkMicroWeightSampler(b *testing.B) {
	e := env(b, "independent", benchN, benchDim, benchK, benchRank, benchWm)
	sets := dominance.FindIncom(e.tr, e.wl.Q)
	inc := make([]vec.Point, len(sets.I))
	for i, c := range sets.I {
		inc[i] = c.Point
	}
	s, err := sample.NewWeightSampler(e.wl.Q, inc)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

// BenchmarkWhyNotDims runs the product why-not path (Index.WhyNotCtx, every
// accelerator on) on Table-1 questions (k = 10, actual rank 101, |Wm| = 1)
// over the paper's dimensionalities — UN d = 3 and the stand-ins for its
// two real datasets, household-like d = 6 and NBA-like d = 13 — at two
// sample counts, and UN d = 3 also at the paper's default |S| = |Q| = 800.
// One op answers every question of the cell once. It is the
// benchmark DESIGN §9 quotes for the refinement route, and CI's one-shot
// smoke of it keeps the d > 4 product path running.
func BenchmarkWhyNotDims(b *testing.B) {
	const questions = 4
	for _, c := range []struct {
		name string
		ds   func() *dataset.Dataset
	}{
		{"UN-d3", func() *dataset.Dataset { return dataset.Independent(100000, 3, 1) }},
		{"household-d6", func() *dataset.Dataset { return dataset.HouseholdLike(100000, 1) }},
		{"nba-d13", func() *dataset.Dataset { return dataset.NBALike(17265, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := c.ds()
			pts := make([][]float64, len(ds.Points))
			for i, p := range ds.Points {
				pts[i] = p
			}
			ix, err := NewIndex(pts)
			if err != nil {
				b.Fatal(err)
			}
			var reqs []WhyNotRequest
			for seed := int64(1); len(reqs) < questions; seed++ {
				wl, err := dataset.MakeWhyNot(ds, benchK, benchRank, 1, seed)
				if errors.Is(err, dataset.ErrOriginAnchor) {
					b.Fatal(err) // no seed can succeed
				}
				if err != nil {
					continue // no point of this rank under the drawn vector
				}
				reqs = append(reqs, WhyNotRequest{Q: wl.Q, K: wl.K, W: [][]float64{wl.Wm[0]}})
			}
			sampleSizes := []int{24, 100}
			if c.name == "UN-d3" {
				// The paper's default |S| = |Q|; household-d6 at 800 is too
				// slow for a one-iteration smoke.
				sampleSizes = append(sampleSizes, 800)
			}
			for _, samples := range sampleSizes {
				b.Run(fmt.Sprintf("S=%d", samples), func(b *testing.B) {
					run := func() {
						for qi, req := range reqs {
							req.Opts = Options{SampleSize: samples, Seed: int64(qi + 1)}
							resp, err := ix.WhyNotCtx(context.Background(), req)
							if err != nil {
								b.Fatal(err)
							}
							if len(resp.Answer.Missing) != 1 {
								b.Fatalf("question %d: the why-not vector is not missing", qi)
							}
						}
					}
					run() // builds the bands the questions share, once per index
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						run()
					}
				})
			}
		})
	}
}

// BenchmarkReverseTopKDims runs reverse top-k (k = 10, |W| = 1 000) below
// the cell grid across data shapes and the paper's dimensionalities. Each
// cell has 50 query points, 30 % of them synthesized at rank <= k under a
// vector of W — the expensive case, as bench/gen.go draws them — and the
// rest random data points; one op answers all 50, and ms/q and p95-ms/q
// report the per-query mean and 95th percentile. "product" is
// Index.ReverseTopKCtx: one capped count descent per vector over the band
// tree (UN d = 3 runs with cellOff, since the grid would otherwise answer;
// the AC bands at d = 3 and 4 are past the grid's basis limit on their
// own). "rta" is the paper's algorithm over the same band tree, the
// reference DESIGN §9 quotes the product against, and "fulltree" the
// product's count descent over the full tree instead of the band tree:
// what the band buys the descent.
func BenchmarkReverseTopKDims(b *testing.B) {
	const queries, nW = 50, 1000
	for _, c := range []struct {
		name    string
		ds      func() *dataset.Dataset
		cellOff bool
	}{
		{"UN-d3-cellOff", func() *dataset.Dataset { return dataset.Independent(100000, 3, 1) }, true},
		{"UN-d5", func() *dataset.Dataset { return dataset.Independent(100000, 5, 1) }, false},
		{"AC-d3", func() *dataset.Dataset { return dataset.Anticorrelated(100000, 3, 1) }, false},
		{"AC-d4", func() *dataset.Dataset { return dataset.Anticorrelated(100000, 4, 1) }, false},
		{"AC-d5", func() *dataset.Dataset { return dataset.Anticorrelated(50000, 5, 1) }, false},
		{"household-d6", func() *dataset.Dataset { return dataset.HouseholdLike(20000, 1) }, false},
		{"nba-d13", func() *dataset.Dataset { return dataset.NBALike(17265, 1) }, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := c.ds()
			pts := make([][]float64, len(ds.Points))
			for i, p := range ds.Points {
				pts[i] = p
			}
			ix, err := NewIndex(pts)
			if err != nil {
				b.Fatal(err)
			}
			ix.cellOff = c.cellOff
			rng := rand.New(rand.NewSource(2))
			W := make([][]float64, nW)
			ws := make([]vec.Weight, nW)
			for i := range W {
				ws[i] = sample.RandSimplex(rng, ds.Dim)
				W[i] = ws[i]
			}
			qs := make([][]float64, queries)
			for i := range qs {
				if i%10 >= 3 {
					qs[i] = pts[rng.Intn(len(pts))]
					continue
				}
				top, err := ix.TopK(W[rng.Intn(nW)], benchK)
				if err != nil {
					b.Fatal(err)
				}
				qs[i] = top[rng.Intn(len(top))].Point
			}
			band := ix.band(benchK).Tree() // built here, outside the timed loops
			run := func(b *testing.B, answer func(q []float64) error) {
				lat := make([]time.Duration, 0, b.N*queries)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range qs {
						start := time.Now()
						if err := answer(q); err != nil {
							b.Fatal(err)
						}
						lat = append(lat, time.Since(start))
					}
				}
				b.StopTimer()
				sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
				b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(len(lat)), "ms/q")
				b.ReportMetric(float64(lat[len(lat)*95/100].Microseconds())/1e3, "p95-ms/q")
			}
			b.Run("product", func(b *testing.B) {
				before := ix.CellIndexStats().Lookups
				run(b, func(q []float64) error {
					_, err := ix.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: q, K: benchK, W: W})
					return err
				})
				if ix.CellIndexStats().Lookups != before {
					b.Fatal("the cell grid answered: this cell does not measure the tier below it")
				}
			})
			b.Run("rta", func(b *testing.B) {
				run(b, func(q []float64) error {
					_, _, err := rtopk.BichromaticCtx(context.Background(), band, ws, q, benchK)
					return err
				})
			})
			b.Run("fulltree", func(b *testing.B) {
				run(b, func(q []float64) error {
					_, _, err := rtopk.BichromaticCountCtx(context.Background(), ix.tree, ws, q, benchK)
					return err
				})
			})
		})
	}
}

// BenchmarkFirstQuery times what a request pays on a cold index: the first
// ReverseTopK (|W| = 1 000, k = 10, a query point ranked k-th under one of
// the vectors) and the first Table-1 WhyNot (k = 10, actual rank 101,
// |Wm| = 1, |S| = |Q| = 24) on a fresh NewIndex, against warm ones, asked
// once every band and grid the earlier reads started has landed. Each
// "first" op builds its index outside the timer and lets the index's
// background builds finish, also outside it. The cells are UN n = 100k
// d = 3, NBA-like n = 17 265 d = 13 and household-like n = 100k d = 6
// (whose 10-band is the whole dataset).
func BenchmarkFirstQuery(b *testing.B) {
	for _, c := range []struct {
		name string
		ds   func() *dataset.Dataset
	}{
		{"UN-d3", func() *dataset.Dataset { return dataset.Independent(100000, 3, 1) }},
		{"nba-d13", func() *dataset.Dataset { return dataset.NBALike(17265, 1) }},
		{"household-d6", func() *dataset.Dataset { return dataset.HouseholdLike(100000, 1) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := c.ds()
			pts := make([][]float64, len(ds.Points))
			for i, p := range ds.Points {
				pts[i] = p
			}
			newIndex := func(b *testing.B) *Index {
				ix, err := NewIndex(pts)
				if err != nil {
					b.Fatal(err)
				}
				return ix
			}
			rng := rand.New(rand.NewSource(3))
			W := make([][]float64, 1000)
			for i := range W {
				W[i] = sample.RandSimplex(rng, ds.Dim)
			}
			top, err := newIndex(b).TopK(W[0], benchK)
			if err != nil {
				b.Fatal(err)
			}
			rtopkReq := ReverseTopKRequest{Q: top[benchK-1].Point, K: benchK, W: W}
			var whyNotReq WhyNotRequest
			for seed := int64(1); whyNotReq.W == nil; seed++ {
				wl, err := dataset.MakeWhyNot(ds, benchK, benchRank, 1, seed)
				if errors.Is(err, dataset.ErrOriginAnchor) {
					b.Fatal(err) // no seed can succeed
				}
				if err == nil {
					whyNotReq = WhyNotRequest{Q: wl.Q, K: wl.K, W: [][]float64{wl.Wm[0]}, Opts: Options{SampleSize: 24, Seed: 1}}
				}
			}
			for _, kind := range []struct {
				name string
				ask  func(ix *Index) error
			}{
				{"rtopk", func(ix *Index) error {
					_, err := ix.ReverseTopKCtx(context.Background(), rtopkReq)
					return err
				}},
				{"whynot", func(ix *Index) error {
					_, err := ix.WhyNotCtx(context.Background(), whyNotReq)
					return err
				}},
			} {
				b.Run(kind.name+"/first", func(b *testing.B) {
					b.StopTimer()
					for i := 0; i < b.N; i++ {
						ix := newIndex(b)
						b.StartTimer()
						if err := kind.ask(ix); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						settle(ix)
					}
				})
				b.Run(kind.name+"/warm", func(b *testing.B) {
					ix := newIndex(b)
					// Full tree → band tree → grid: each read starts the
					// next tier's build.
					for range 3 {
						if err := kind.ask(ix); err != nil {
							b.Fatal(err)
						}
						settle(ix)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := kind.ask(ix); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkEngineReverseTopK measures serving-engine throughput for
// bichromatic reverse top-k requests at 1, 4 and 16 concurrent clients over
// the UN (independent) dataset. Each request carries its own small
// weighting-vector set against a shared competitive query point — the shape
// of production reverse top-k traffic ("which of these customer segments
// would see my product?"). The result cache is disabled so the measurement
// excludes memoization; ns/op is the end-to-end latency-throughput inverse:
// requests/sec = 1e9 / (ns/op).
//
// A worker batches only what is already queued, so client scaling comes
// from amortizing one snapshot load and queue hand-off over a batch; every
// distinct request still runs its own per-vector membership counts.
func BenchmarkEngineReverseTopK(b *testing.B) {
	ds := dataset.Independent(benchN, benchDim, 1)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	q := []float64{0.02, 0.03, 0.02}
	const vectorsPerRequest = 2
	rng := rand.New(rand.NewSource(11))
	workload := make([][][]float64, 512)
	for i := range workload {
		W := make([][]float64, vectorsPerRequest)
		for j := range W {
			W[j] = sample.RandSimplex(rng, benchDim)
		}
		workload[i] = W
	}
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			// An index of its own: Close stops the background builds of
			// the engine's whole clone family.
			ix, err := NewIndex(pts)
			if err != nil {
				b.Fatal(err)
			}
			e, err := NewEngine(ix, EngineConfig{
				CacheSize: -1, // exclude memoization from the measurement
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{W: workload[i%int64(len(workload))], Q: q, K: benchK}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// --- Context-path overhead guard (DESIGN.md, "Cooperative cancellation") ---
//
// The positional API now delegates to the context path, so these benchmarks
// bound what the redesign added to the hot read paths: Positional vs Request
// isolates the wrapper + request-struct cost, and RequestWithDeadline arms
// the cancellation tickers (a Background context leaves them as a single nil
// check per interval). The guard target is <2% overhead vs Positional.

func benchIndex(b *testing.B) *Index {
	b.Helper()
	ds := dataset.Independent(benchN, benchDim, 1)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func BenchmarkContextOverheadTopK(b *testing.B) {
	ix := benchIndex(b)
	w := []float64{0.2, 0.3, 0.5}
	b.Run("Positional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.TopK(w, benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Request", func(b *testing.B) {
		ctx := context.Background()
		req := TopKRequest{W: w, K: benchK}
		for i := 0; i < b.N; i++ {
			if _, err := ix.TopKCtx(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RequestWithDeadline", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		req := TopKRequest{W: w, K: benchK}
		for i := 0; i < b.N; i++ {
			if _, err := ix.TopKCtx(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkContextOverheadReverseTopK(b *testing.B) {
	ix := benchIndex(b)
	rng := rand.New(rand.NewSource(9))
	W := make([][]float64, 200)
	for i := range W {
		W[i] = sample.RandSimplex(rng, benchDim)
	}
	q := []float64{0.02, 0.03, 0.02}
	b.Run("Positional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.ReverseTopK(W, q, benchK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Request", func(b *testing.B) {
		ctx := context.Background()
		req := ReverseTopKRequest{Q: q, K: benchK, W: W}
		for i := 0; i < b.N; i++ {
			if _, err := ix.ReverseTopKCtx(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RequestWithDeadline", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		req := ReverseTopKRequest{Q: q, K: benchK, W: W}
		for i := 0; i < b.N; i++ {
			if _, err := ix.ReverseTopKCtx(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineTopKCached measures the cache-hit fast path: a hot query
// served straight from the (epoch, query)-keyed LRU.
func BenchmarkEngineTopKCached(b *testing.B) {
	ds := dataset.Independent(benchN, benchDim, 1)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ix, EngineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	w := []float64{0.2, 0.3, 0.5}
	if _, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: benchK}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: benchK}); err != nil {
			b.Fatal(err)
		}
	}
}
