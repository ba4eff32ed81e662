package wqrtq

// Differential property suite for the materialized reverse-top-k cell
// index: with the cell index enabled (the default), every endpoint must
// answer bit-identically to the cellOff reference — same reverse top-k
// index sets, same ranks, and the same why-not answers down to the last
// bit of every penalty — across UN/CO/AC workloads, skyband on/off, and
// mutation streams that drop bands and the grids they hold. The
// reference is the tier below the grid, one capped count descent per
// vector over the band tree (itself pinned to RTA and the linear scan in
// kernel_test.go, tiers_test.go and internal/rtopk's FuzzBichromaticCount);
// the suite pins the grid construction, the per-cell candidate supersets,
// the capped cell-local counting and the whole-query fallback discipline.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/sample"
)

// cellPair builds two identical indexes over pts with the given skyband
// setting, one with the cell index on (default) and one with cellOff.
func cellPair(t *testing.T, pts [][]float64, skybandOn bool) (on, off *Index) {
	t.Helper()
	on, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	if on.cellOff {
		t.Fatal("cell index must be enabled by default")
	}
	on.skyOff = !skybandOn
	off, err = NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	off.skyOff = !skybandOn
	off.cellOff = true
	return on, off
}

func TestCellIndexDifferential(t *testing.T) {
	const casesPerShape = 8
	for si, shape := range diffShapes {
		t.Run(shape.name, func(t *testing.T) {
			for i := 0; i < casesPerShape; i++ {
				seed := int64(130000*si + i)
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(300)
				d := 2 + rng.Intn(3)
				k := 1 + rng.Intn(15)
				ds := shape.gen(n, d, seed+510000)
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
				for _, skybandOn := range []bool{true, false} {
					on, off := cellPair(t, pts, skybandOn)
					warm(on, k)
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
					// Guard against a vacuous suite: wherever a grid exists
					// (a built band, d <= 4) it must have answered.
					if skybandOn && !on.band(k).Full() && on.CellIndexStats().Lookups == 0 {
						t.Fatalf("case %d: n=%d d=%d k=%d: the grid arm made no cell lookup", i, len(pts), d, k)
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

// TestCellIndexWhyNotPenalties runs the full why-not pipeline with
// identical seeds on cellindex-on and cellindex-off indexes and requires
// bit-identical answers, penalties included, with skyband on and off. The
// pipeline's membership stage is a count descent over the full tree, so a
// why-not builds no k-band and no grid and makes no cell lookup.
func TestCellIndexWhyNotPenalties(t *testing.T) {
	const cases = 8
	for i := 0; i < cases; i++ {
		seed := int64(7700 + i)
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		d := 2 + rng.Intn(2)
		k := 1 + rng.Intn(6)
		opts := Options{SampleSize: 16, Seed: seed}
		ds := dataset.Independent(n, d, seed+610000)
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
		for _, skybandOn := range []bool{true, false} {
			on, off := cellPair(t, pts, skybandOn)
			got, err := on.WhyNot(q, k, W, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := off.WhyNot(q, k, W, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameWhyNot(t, "cellindex WhyNot", got, want)
			if st := on.CellIndexStats(); on.sky.Peek(k) != nil || st.Builds != 0 || st.Lookups != 0 {
				t.Fatalf("case %d: a why-not built the %d-band or a grid: %+v", i, k, st)
			}
		}
	}
}

// TestCellIndexMutationInvalidation drives the same mutation stream into a
// cellindex-on and a cellindex-off index, querying between mutations:
// every answer must stay identical, which fails if a stale grid survives
// an insert or delete (a grid lives on its band, and a band the mutation
// changed must be unreachable from the next snapshot).
func TestCellIndexMutationInvalidation(t *testing.T) {
	const d = 3
	ds := dataset.Independent(150, d, 47)
	pts := make([][]float64, len(ds.Points))
	for j, p := range ds.Points {
		pts[j] = p
	}
	on, off := cellPair(t, pts, true)
	rng := rand.New(rand.NewSource(91031))
	W := make([][]float64, 8)
	for j := range W {
		W[j] = sample.RandSimplex(rng, d)
	}
	for i := 0; i < 80; i++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// Warm the band and its grid so the mutation has something to
		// invalidate.
		warm(on, 5)
		if _, err := on.ReverseTopK(W, q, 5); err != nil {
			t.Fatal(err)
		}
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		idA, errA := on.Insert(p)
		idB, errB := off.Insert(p)
		if errA != nil || errB != nil || idA != idB {
			t.Fatalf("insert diverged: (%d, %v) vs (%d, %v)", idA, errA, idB, errB)
		}
		if i%3 == 0 {
			victim := rng.Intn(idA + 1)
			okA, _ := on.Delete(victim)
			okB, _ := off.Delete(victim)
			if okA != okB {
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
		wantWn, err := off.WhyNot(q, 5, W, Options{SampleSize: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sameWhyNot(t, "post-mutation WhyNot", wn, wantWn)
	}
	if err := on.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if on.CellIndexStats().Lookups == 0 {
		t.Fatal("the grid arm made no cell lookup")
	}
}

// TestCellIndexEngineStats exercises the engine integration: the cell
// counters must surface in EngineStats and survive snapshot swaps, the
// cellOff reference must answer identically and record no cell
// activity, and a mutation must publish a snapshot whose grids rebuild on
// first use while the cumulative counters carry over.
func TestCellIndexEngineStats(t *testing.T) {
	eOn, _ := testEngine(t, 500, 3, EngineConfig{CacheSize: -1})
	eOff, _ := testEngineOver(t, 500, 3, EngineConfig{CacheSize: -1}, func(ix *Index) { ix.cellOff = true })
	if eOn.Snapshot().cellOff || !eOff.Snapshot().cellOff {
		t.Fatal("engine cell-index configuration not applied")
	}
	rng := rand.New(rand.NewSource(521))
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
	st := eOn.Stats()
	if st.CellIndex.Grids < 1 || st.CellIndex.Cells < 1 ||
		st.CellIndex.Candidates < 1 || st.CellIndex.Builds < 1 || st.CellIndex.Lookups < int64(len(W)) {
		t.Fatalf("cell-index stats not populated: %+v", st.CellIndex)
	}
	stOff := eOff.Stats()
	if stOff.CellIndex.Builds != 0 || stOff.CellIndex.Lookups != 0 {
		t.Fatalf("ablated engine recorded cell-index work: %+v", stOff.CellIndex)
	}

	// A mutation publishes a fresh snapshot that keeps every grid whose
	// basis band it leaves unchanged: a point nearly everything dominates
	// comes and goes without a rebuild, and the next query is a cache hit.
	// The band counters report the grid's carry: it rides on its band.
	builds, grids := st.CellIndex.Builds, st.CellIndex.Grids
	id, _, err := eOn.Insert([]float64{0.99, 0.99, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, err := eOn.Delete(id); !ok || err != nil {
		t.Fatalf("delete: %t, %v", ok, err)
	}
	mid := eOn.Stats()
	if mid.CellIndex.Grids != grids || mid.CellIndex.Builds != builds ||
		mid.Skyband.Carried != st.Skyband.Carried+int64(2*st.Skyband.Bands) || mid.Skyband.Dropped != st.Skyband.Dropped {
		t.Fatalf("non-member insert+delete: before %+v %+v after %+v %+v", st.Skyband, st.CellIndex, mid.Skyband, mid.CellIndex)
	}
	if _, err := eOn.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W}); err != nil {
		t.Fatal(err)
	}
	if got := eOn.Stats(); got.CellIndex.Builds != builds || got.Skyband.Hits <= mid.Skyband.Hits {
		t.Fatalf("query after carried mutations rebuilt its grid: %+v %+v", got.Skyband, got.CellIndex)
	}

	// Deleting a member of the k=4 basis band drops exactly that grid,
	// and the next queries rebuild it in the background: the band first,
	// then its grid.
	snap := eOn.Snapshot()
	band, _ := dominance.KSkyband(snap.tree, 4, snap.tree.Len())
	victim := int(band[0].ID)
	if ok, _, err := eOn.Delete(victim); !ok || err != nil {
		t.Fatalf("delete: %t, %v", ok, err)
	}
	after := eOn.Stats()
	if after.CellIndex.Grids != grids-1 || after.Skyband.Dropped != mid.Skyband.Dropped+1 || after.CellIndex.Builds != builds {
		t.Fatalf("member delete: before %+v %+v after %+v %+v", mid.Skyband, mid.CellIndex, after.Skyband, after.CellIndex)
	}
	for range 2 {
		if _, err := eOn.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W}); err != nil {
			t.Fatal(err)
		}
		settle(eOn.Snapshot())
	}
	if got := eOn.Stats().CellIndex; got.Builds != builds+1 || got.Grids != grids {
		t.Fatalf("dropped grid was not rebuilt in the background: %+v", got)
	}
}

// TestCellIndexConcurrentLazyBuild is the -race hammer for the shared
// background-build lifecycle: many goroutines query overlapping k values
// on every snapshot of a clone family, over rounds that each wait for the
// builds the last one started, while they read the stats, so concurrent
// starts of band and grid builds, their publication and the stats peek
// all run under the race detector.
func TestCellIndexConcurrentLazyBuild(t *testing.T) {
	ds := dataset.Independent(400, 3, 51)
	pts := make([][]float64, len(ds.Points))
	for j, p := range ds.Points {
		pts[j] = p
	}
	rng := rand.New(rand.NewSource(611))
	W := make([][]float64, 6)
	for j := range W {
		W[j] = sample.RandSimplex(rng, 3)
	}
	q := []float64{0.2, 0.1, 0.3}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Clone family: each snapshot diverges by one mutation (all
	// mutations happen before the concurrent phase, per the
	// serialization contract).
	snaps := []*Index{ix}
	for i := 0; i < 3; i++ {
		c := snaps[len(snaps)-1].Clone()
		if _, err := c.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, c)
	}
	var wg sync.WaitGroup
	for _, snap := range snaps {
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(snap *Index) {
				defer wg.Done()
				// Rounds: the full tree while the bands build, the band
				// trees while the grids build, then the grids.
				for range 3 {
					for k := 1; k <= 4; k++ {
						if _, err := snap.ReverseTopK(W, q, k); err != nil {
							t.Error(err)
						}
					}
					_ = snap.CellIndexStats()
					settle(snap)
				}
			}(snap)
		}
	}
	wg.Wait()
	for i, snap := range snaps {
		if st := snap.CellIndexStats(); st.Grids == 0 || st.Lookups == 0 {
			t.Fatalf("snapshot %d: no grid answered: %+v", i, st)
		}
	}
	want, err := snaps[0].ReverseTopK(W, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := NewIndex(pts)
	off.cellOff = true
	wantOff, err := off.ReverseTopK(W, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, wantOff) {
		t.Fatalf("concurrent-build result diverged from ablation: %v vs %v", want, wantOff)
	}
}
