package wqrtq

// Differential property suite for what the blocked scoring kernel serves.
// Reverse top-k on the product path (the cell grid, whose cell-local counts
// are kernel sweeps) must answer bit-identically to every reference — the
// cellOff index, one capped count descent per vector over the band tree;
// the skyOff index, the same descent over the full tree; and the linear
// scan over the live points (rtopk.BichromaticNaive) — with the same index sets
// across UN/CO/AC workloads and mutation streams that invalidate the epoch
// caches. The refinement loops sweep the call-fixed universe, so their
// reference is the skyOff oracle (core's nil-Source legacy path): why-not
// answers must match it down to the last bit of every penalty, which pins
// the blocked rank counting, the capped sample sweeps and the universe of
// the fused pipeline. A separate suite pins the fused WhyNot pipeline
// against the standalone refinement endpoints.

import (
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

func TestKernelDifferential(t *testing.T) {
	const casesPerShape = 10
	for si, shape := range diffShapes {
		t.Run(shape.name, func(t *testing.T) {
			for i := 0; i < casesPerShape; i++ {
				seed := int64(120000*si + i)
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(300)
				d := 2 + rng.Intn(3)
				k := 1 + rng.Intn(15)
				ds := shape.gen(n, d, seed+500000)
				pts := make([][]float64, len(ds.Points))
				for j, p := range ds.Points {
					pts[j] = p
				}
				q := make([]float64, d)
				for j := range q {
					q[j] = rng.Float64() * rng.Float64()
				}
				W := make([][]float64, 1+rng.Intn(20))
				for j := range W {
					W[j] = sample.RandSimplex(rng, d)
				}
				ws := make([]vec.Weight, len(W))
				for j, w := range W {
					ws[j] = w
				}
				for _, skybandOn := range []bool{true, false} {
					on, off := cellPair(t, pts, skybandOn)
					gotRTK, err := on.ReverseTopK(W, q, k)
					if err != nil {
						t.Fatal(err)
					}
					wantRTK, err := off.ReverseTopK(W, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotRTK, wantRTK) {
						t.Fatalf("case %d sky=%v: ReverseTopK %v, ablation %v",
							i, skybandOn, gotRTK, wantRTK)
					}
					live, _ := on.livePoints()
					if naive := rtopk.BichromaticNaive(live, ws, q, k); !reflect.DeepEqual(gotRTK, naive) {
						t.Fatalf("case %d sky=%v: ReverseTopK %v, linear scan %v", i, skybandOn, gotRTK, naive)
					}
					gotRank, _ := on.Rank(W[0], q)
					wantRank, _ := off.Rank(W[0], q)
					if gotRank != wantRank {
						t.Fatalf("case %d sky=%v: Rank %d, ablation %d",
							i, skybandOn, gotRank, wantRank)
					}
				}
			}
		})
	}
}

// sameWhyNot requires two why-not answers to match bit for bit on every
// comparable field (explanation ID order inside score ties excepted).
func sameWhyNot(t *testing.T, label string, got, want *WhyNotAnswer) {
	t.Helper()
	if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Missing, want.Missing) {
		t.Fatalf("%s: result/missing diverge: %v/%v vs %v/%v",
			label, got.Result, got.Missing, want.Result, want.Missing)
	}
	for ei := range want.Explanations {
		sameRankedModuloTies(t, label+" explanation", got.Explanations[ei], want.Explanations[ei])
	}
	if !reflect.DeepEqual(got.ModifiedQuery.Q, want.ModifiedQuery.Q) ||
		got.ModifiedQuery.Penalty != want.ModifiedQuery.Penalty {
		t.Fatalf("%s: MQP diverged: %+v vs %+v", label, got.ModifiedQuery, want.ModifiedQuery)
	}
	if got.ModifiedPreferences.Penalty != want.ModifiedPreferences.Penalty ||
		got.ModifiedPreferences.K != want.ModifiedPreferences.K ||
		got.ModifiedPreferences.KMax != want.ModifiedPreferences.KMax ||
		!reflect.DeepEqual(got.ModifiedPreferences.Wm, want.ModifiedPreferences.Wm) {
		t.Fatalf("%s: MWK diverged: %+v vs %+v", label, got.ModifiedPreferences, want.ModifiedPreferences)
	}
	if got.ModifiedAll.Penalty != want.ModifiedAll.Penalty ||
		got.ModifiedAll.K != want.ModifiedAll.K ||
		!reflect.DeepEqual(got.ModifiedAll.Q, want.ModifiedAll.Q) ||
		!reflect.DeepEqual(got.ModifiedAll.Wm, want.ModifiedAll.Wm) {
		t.Fatalf("%s: MQWK diverged: %+v vs %+v", label, got.ModifiedAll, want.ModifiedAll)
	}
}

// TestKernelWhyNotPenalties runs the full pipeline with identical seeds on
// the product index and on both references — the skyOff oracle, whose
// refinements take core's legacy path and whose reverse top-k stage counts
// over the full tree; and cellOff, whose reverse top-k stage counts over
// the band tree — and requires bit-identical answers, penalties included,
// across the sequential and parallel MQWK paths.
func TestKernelWhyNotPenalties(t *testing.T) {
	const cases = 8
	for i := 0; i < cases; i++ {
		seed := int64(7100 + i)
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		d := 2 + rng.Intn(2)
		k := 1 + rng.Intn(6)
		opts := Options{SampleSize: 16, Seed: seed}
		ds := dataset.Independent(n, d, seed+600000)
		pts := make([][]float64, len(ds.Points))
		for j, p := range ds.Points {
			pts[j] = p
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = pts[rng.Intn(n)][j]*0.5 + 0.3
		}
		W := make([][]float64, 4+rng.Intn(8))
		for j := range W {
			W[j] = sample.RandSimplex(rng, d)
		}
		product, cellOff := cellPair(t, pts, true)
		oracle, _ := cellPair(t, pts, false)
		got, err := product.WhyNot(q, k, W, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, ref := range map[string]*Index{"skyOff oracle": oracle, "cellOff": cellOff} {
			want, err := ref.WhyNot(q, k, W, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameWhyNot(t, "WhyNot vs "+name, got, want)
		}
	}
}

// TestWhyNotMatchesStandaloneRefinements pins the fused refinement
// pipeline (core.WhyNotRefine): the three refinements inside a
// WhyNot answer must be bit-identical to the standalone ModifyQuery /
// ModifyPreferences / ModifyAll endpoints called with the same missing
// vectors — the shared candidate traversal and the reused MQP optimum are
// equal by construction to what each stage recomputes on its own.
func TestWhyNotMatchesStandaloneRefinements(t *testing.T) {
	for i := 0; i < 6; i++ {
		seed := int64(8200 + i)
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(250)
		d := 2 + rng.Intn(2)
		k := 1 + rng.Intn(6)
		opts := Options{SampleSize: 24, Seed: seed}
		ds := dataset.Independent(n, d, seed+700000)
		pts := make([][]float64, len(ds.Points))
		for j, p := range ds.Points {
			pts[j] = p
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = pts[rng.Intn(n)][j]*0.5 + 0.3
		}
		W := make([][]float64, 4+rng.Intn(8))
		for j := range W {
			W[j] = sample.RandSimplex(rng, d)
		}
		for _, cellOn := range []bool{true, false} {
			ix, err := NewIndex(pts)
			if err != nil {
				t.Fatal(err)
			}
			ix.cellOff = !cellOn
			ans, err := ix.WhyNot(q, k, W, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(ans.Missing) == 0 {
				continue
			}
			missing := make([][]float64, len(ans.Missing))
			for j, mi := range ans.Missing {
				missing[j] = W[mi]
			}
			mq, err := ix.ModifyQuery(q, k, missing, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mq, ans.ModifiedQuery) {
				t.Fatalf("case %d cell=%v: fused MQP %+v, standalone %+v", i, cellOn, ans.ModifiedQuery, mq)
			}
			mp, err := ix.ModifyPreferences(q, k, missing, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(mp, ans.ModifiedPreferences) {
				t.Fatalf("case %d cell=%v: fused MWK %+v, standalone %+v", i, cellOn, ans.ModifiedPreferences, mp)
			}
			ma, err := ix.ModifyAll(q, k, missing, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ma, ans.ModifiedAll) {
				t.Fatalf("case %d cell=%v: fused MQWK %+v, standalone %+v", i, cellOn, ans.ModifiedAll, ma)
			}
		}
	}
}

// TestKernelMutationInvalidation drives the same mutation stream into the
// product index, a cellOff one and the skyOff oracle, querying between
// mutations: every answer must stay identical, which fails if a stale
// band, grid or flattened image survives an insert or delete.
func TestKernelMutationInvalidation(t *testing.T) {
	const d = 3
	ds := dataset.Independent(150, d, 43)
	pts := make([][]float64, len(ds.Points))
	for j, p := range ds.Points {
		pts[j] = p
	}
	on, off := cellPair(t, pts, true)
	oracle, _ := cellPair(t, pts, false)
	rng := rand.New(rand.NewSource(90031))
	W := make([][]float64, 8)
	for j := range W {
		W[j] = sample.RandSimplex(rng, d)
	}
	for i := 0; i < 80; i++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// Warm the caches so the mutation has something to invalidate.
		if _, err := on.ReverseTopK(W, q, 5); err != nil {
			t.Fatal(err)
		}
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		idA, errA := on.Insert(p)
		idB, errB := off.Insert(p)
		idC, errC := oracle.Insert(p)
		if errA != nil || errB != nil || errC != nil || idA != idB || idA != idC {
			t.Fatalf("insert diverged: (%d, %v) vs (%d, %v) vs (%d, %v)", idA, errA, idB, errB, idC, errC)
		}
		if i%3 == 0 {
			victim := rng.Intn(idA + 1)
			okA, _ := on.Delete(victim)
			okB, _ := off.Delete(victim)
			okC, _ := oracle.Delete(victim)
			if okA != okB || okA != okC {
				t.Fatalf("delete %d diverged", victim)
			}
		}
		gotRTK, err := on.ReverseTopK(W, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantRTK, _ := off.ReverseTopK(W, q, 5)
		if !reflect.DeepEqual(gotRTK, wantRTK) {
			t.Fatalf("step %d: post-mutation ReverseTopK diverged", i)
		}
		wn, err := on.WhyNot(q, 5, W, Options{SampleSize: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for name, ref := range map[string]*Index{"cellOff": off, "skyOff oracle": oracle} {
			wantWn, err := ref.WhyNot(q, 5, W, Options{SampleSize: 8, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			sameWhyNot(t, "post-mutation WhyNot vs "+name, wn, wantWn)
		}
	}
	if err := on.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelEngineStats exercises the engine integration: the kernel
// counters must surface in EngineStats and survive snapshot swaps, the
// cellOff reference must answer identically without a single sweep (the
// count descent does not touch the kernel), and Clone must keep the clone
// family's cumulative counters.
func TestKernelEngineStats(t *testing.T) {
	eOn, _ := testEngine(t, 500, 3, EngineConfig{CacheSize: -1})
	eOff, _ := testEngineOver(t, 500, 3, EngineConfig{CacheSize: -1}, func(ix *Index) { ix.cellOff = true })
	rng := rand.New(rand.NewSource(321))
	q := []float64{rng.Float64() * 0.3, rng.Float64() * 0.3, rng.Float64() * 0.3}
	W := make([][]float64, 12)
	for j := range W {
		W[j] = sample.RandSimplex(rng, 3)
	}
	warm(eOn.Snapshot(), 4)
	respOn, err := eOn.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W})
	if err != nil {
		t.Fatal(err)
	}
	respOff, err := eOff.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(respOn.Result, respOff.Result) {
		t.Fatalf("engine results diverge: %v vs %v", respOn.Result, respOff.Result)
	}
	wnOn, err := eOn.WhyNotCtx(t.Context(), WhyNotRequest{Q: q, K: 4, W: W, Opts: Options{SampleSize: 8, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if wnOn.Answer.RTA.Evaluated+wnOn.Answer.RTA.Pruned != len(W) {
		t.Fatalf("WhyNot RTA stats inconsistent: %+v over %d vectors", wnOn.Answer.RTA, len(W))
	}
	st := eOn.Stats()
	if st.Kernel.Blocks < 1 || st.Kernel.Weights < int64(len(W)) || st.Kernel.Points < 1 {
		t.Fatalf("kernel stats not populated: %+v", st.Kernel)
	}
	stOff := eOff.Stats()
	if stOff.Kernel.Blocks != 0 {
		t.Fatalf("ablated engine recorded kernel work: %+v", stOff.Kernel)
	}

	// A mutation publishes a fresh snapshot: the cumulative counters carry
	// over and keep growing.
	blocks := st.Kernel.Blocks
	if _, _, err := eOn.Insert([]float64{0.9, 0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	if got := eOn.Stats().Kernel; got.Blocks != blocks {
		t.Fatalf("cumulative kernel blocks changed on snapshot swap: %d vs %d", got.Blocks, blocks)
	}
	if _, err := eOn.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W}); err != nil {
		t.Fatal(err)
	}
	if got := eOn.Stats().Kernel; got.Blocks <= blocks {
		t.Fatalf("new snapshot did not add kernel work: %+v", got)
	}
}

// TestKernelBlocksPerGridQuery pins the unit of Kernel.Blocks: a
// grid-answered reverse top-k over |W| = 1 000 weights records
// ⌈1000/kernel.BlockSize⌉ = 16 blocks, the unit the refinement loops'
// blocks of at most BlockSize samples count in.
func TestKernelBlocksPerGridQuery(t *testing.T) {
	const k, nW = 10, 1000
	ds := dataset.Independent(2000, 3, 77)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	W := make([][]float64, nW)
	for j := range W {
		W[j] = sample.RandSimplex(rng, 3)
	}
	top, err := ix.TopK(W[0], k)
	if err != nil {
		t.Fatal(err)
	}
	warm(ix, k)
	kern, cell := ix.KernelStats(), ix.CellIndexStats()
	if _, err := ix.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: top[k-1].Point, K: k, W: W}); err != nil {
		t.Fatal(err)
	}
	if got := ix.CellIndexStats().Lookups - cell.Lookups; got != nW {
		t.Fatalf("the grid answered %d lookups, want %d", got, nW)
	}
	after := ix.KernelStats()
	if blocks, weights := after.Blocks-kern.Blocks, after.Weights-kern.Weights; blocks != 16 || weights != nW {
		t.Fatalf("kernel recorded %d blocks of %d weights, want 16 of %d", blocks, weights, nW)
	}
}
