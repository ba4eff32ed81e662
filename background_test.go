package wqrtq

// Background builds: a reverse top-k never waits on a band or a grid. A
// missing one starts one background build, and the request answers on the
// tier below — grid → band-tree count descent → full-tree count descent —
// which decides identically. A why-not never asks for either. These tests
// hold builds in flight through the family's hold hook (builds.hold) and
// pin each tier's answer against the naive oracle, the carry of an
// in-flight build across a mutation, and Engine.Close's wait.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// settle waits until no background build of ix's family is running.
func settle(ix *Index) { ix.bg.wait() }

// warm builds ix's band for each k and, where it has one, its grid, as a
// warm server holds them, so that the reads that follow take the tiers a
// test pins. It is a no-op under skyOff.
func warm(ix *Index, ks ...int) {
	for _, k := range ks {
		ix.cellGrid(ix.band(k))
	}
}

// holdBuilds makes every background build of ix's family wait for a
// release: each value sent on the returned channel lets one build run.
func holdBuilds(ix *Index) chan<- struct{} {
	gate := make(chan struct{})
	ix.bg.hold = func() { <-gate }
	return gate
}

// rtopkFixture is a UN index with a query whose reverse top-k is neither
// empty nor everything, and the naive answer.
func rtopkFixture(t *testing.T, n, k int, seed int64) (ix *Index, req ReverseTopKRequest, want []int) {
	t.Helper()
	const d = 3
	ds := dataset.Independent(n, d, seed)
	ix, err := NewIndex(toRows(ds.Points))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	W := make([][]float64, 40)
	ws := make([]vec.Weight, len(W))
	for j := range W {
		ws[j] = sample.RandSimplex(rng, d)
		W[j] = ws[j]
	}
	top, err := ix.TopK(W[0], k)
	if err != nil {
		t.Fatal(err)
	}
	q := top[k-1].Point
	want = rtopk.BichromaticNaive(ds.Points, ws, q, k)
	if len(want) == 0 || len(want) == len(W) {
		t.Fatalf("degenerate fixture: %d of %d vectors in the result", len(want), len(W))
	}
	return ix, ReverseTopKRequest{Q: q, K: k, W: W}, want
}

// TestReverseTopKTiersWhileBuilding walks a cold index up its tiers: the
// first reverse top-k answers from the full tree while the band builds, the
// next from the band tree while the grid builds, the third from the grid,
// each equal to the naive oracle.
func TestReverseTopKTiersWhileBuilding(t *testing.T) {
	const n, k = 2000, 10
	ix, req, want := rtopkFixture(t, n, k, 81)
	gate := holdBuilds(ix)
	ask := func(tier string) RTAStats {
		t.Helper()
		resp, err := ix.ReverseTopKCtx(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Result, want) {
			t.Fatalf("%s: ReverseTopK %v, naive %v", tier, resp.Result, want)
		}
		return resp.RTA
	}

	if rta := ask("full tree"); rta.CandidateSetSize != n {
		t.Fatalf("cold read counted against %d points, want the full %d", rta.CandidateSetSize, n)
	}
	if sky := ix.SkybandStats(); sky.Pending != 1 || sky.Builds != 0 || sky.Bands != 0 {
		t.Fatalf("cold read: want one band build held in flight: %+v", sky)
	}
	gate <- struct{}{}
	settle(ix)

	sky := ix.SkybandStats()
	if sky.Builds != 1 || sky.Pending != 0 || sky.Points == 0 || sky.Points >= n {
		t.Fatalf("band build: %+v", sky)
	}
	if rta := ask("band tree"); rta.CandidateSetSize != sky.Points || rta.Evaluated != len(want) {
		t.Fatalf("band read: %+v, band of %d points", rta, sky.Points)
	}
	if cell := ix.CellIndexStats(); cell.Pending != 1 || cell.Builds != 0 || cell.Lookups != 0 {
		t.Fatalf("band read: want one grid build held in flight: %+v", cell)
	}
	gate <- struct{}{}
	settle(ix)

	if rta := ask("grid"); rta.Evaluated != len(req.W) {
		t.Fatalf("grid read: %+v", rta)
	}
	if cell := ix.CellIndexStats(); cell.Builds != 1 || cell.Pending != 0 || cell.Lookups != int64(len(req.W)) {
		t.Fatalf("grid read: %+v", cell)
	}
	if sky := ix.SkybandStats(); sky.Builds != 1 {
		t.Fatalf("a warm read rebuilt the band: %+v", sky)
	}
}

// TestCarryInFlightBuild mutates a snapshot while its band build is held in
// flight: the next snapshot does not wait, and once the build finishes it
// inherits the band pointer-identical when the mutation leaves it
// unchanged, or nothing — to be rebuilt over its own tree — when it does
// not. Either way it then serves exactly the band computed from scratch.
func TestCarryInFlightBuild(t *testing.T) {
	const k = 10
	for _, tc := range []struct {
		name    string
		mutate  func(t *testing.T, next *Index, members map[int32]bool)
		carried bool
	}{
		{"insert dominated", func(t *testing.T, next *Index, _ map[int32]bool) {
			mustInsert(t, next, []float64{0.99, 0.99, 0.99})
		}, true},
		{"insert dominating", func(t *testing.T, next *Index, _ map[int32]bool) {
			mustInsert(t, next, []float64{0, 0, 0})
		}, false},
		{"delete non-member", func(t *testing.T, next *Index, members map[int32]bool) {
			mustDelete(t, next, func(id int32) bool { return !members[id] })
		}, true},
		{"delete member", func(t *testing.T, next *Index, members map[int32]bool) {
			mustDelete(t, next, func(id int32) bool { return members[id] })
		}, false},
	} {
		for _, viaClone := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/clone=%t", tc.name, viaClone), func(t *testing.T) {
				ix, req, _ := rtopkFixture(t, 600, k, 82)
				members := make(map[int32]bool)
				band, _ := dominance.KSkyband(ix.tree, k, ix.Len())
				for _, m := range band {
					members[m.ID] = true
				}
				gate := holdBuilds(ix)
				if _, err := ix.ReverseTopKCtx(t.Context(), req); err != nil {
					t.Fatal(err)
				}
				parent := ix
				next := ix
				if viaClone {
					next = ix.Clone()
				}
				tc.mutate(t, next, members)
				if next.sky.Peek(k) != nil {
					t.Fatal("the mutation waited for the build in flight")
				}
				gate <- struct{}{}
				settle(ix)

				st := next.SkybandStats()
				got := next.sky.Peek(k)
				if tc.carried {
					if got == nil || st.Carried != 1 || st.Dropped != 0 {
						t.Fatalf("unchanged band not carried: %+v", st)
					}
					if viaClone && got != parent.sky.Peek(k) {
						t.Fatal("carried band is not the parent's")
					}
				} else if got != nil || st.Carried != 0 || st.Dropped != 1 {
					t.Fatalf("changed band carried: %+v", st)
				}
				checkBands(t, "after the build", next, []int{k})
				if tc.carried && next.SkybandStats().Builds != 1 {
					t.Fatalf("carried band rebuilt: %+v", next.SkybandStats())
				}
				if viaClone {
					checkBands(t, "parent", parent, []int{k})
				}
				checkReverseTopK(t, "after the build", next, rand.New(rand.NewSource(83)), k)
			})
		}
	}
}

func mustInsert(t *testing.T, ix *Index, p []float64) {
	t.Helper()
	if _, err := ix.Insert(p); err != nil {
		t.Fatal(err)
	}
}

// mustDelete deletes the lowest live id pick accepts.
func mustDelete(t *testing.T, ix *Index, pick func(int32) bool) {
	t.Helper()
	for id := 0; id < ix.NumIDs(); id++ {
		if ix.Point(id) != nil && pick(int32(id)) {
			if ok, err := ix.Delete(id); !ok || err != nil {
				t.Fatalf("delete %d: %t, %v", id, ok, err)
			}
			return
		}
	}
	t.Fatal("no id to delete")
}

// TestEngineCloseStopsBuilds closes an engine while a band build is held in
// flight: Close waits it out, so no build goroutine outlives Close, and
// the snapshot starts no build afterwards.
func TestEngineCloseStopsBuilds(t *testing.T) {
	ix, req, _ := rtopkFixture(t, 600, 10, 84)
	gate := holdBuilds(ix)
	e, err := NewEngine(ix, EngineConfig{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReverseTopKCtx(t.Context(), req); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	closed := make(chan error)
	go func() { closed <- e.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a build in flight", err)
	case gate <- struct{}{}:
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	snap.bg.mu.Lock()
	running := snap.bg.running
	snap.bg.mu.Unlock()
	if running != 0 {
		t.Fatalf("%d builds still running after Close", running)
	}
	// The closed family takes no more builds: the snapshot still answers,
	// from the tiers that are there.
	if b := snap.sky.Peek(10); b == nil {
		t.Fatal("the build Close waited for did not land")
	}
	got, err := snap.ReverseTopK(req.W, req.Q, 12)
	if err != nil || !reflect.DeepEqual(got, rtopk.BichromaticNaive(mustLive(snap), weights(req.W), req.Q, 12)) {
		t.Fatalf("after Close: %v, %v", got, err)
	}
	if st := snap.SkybandStats(); st.Pending != 0 || st.Builds != 1 {
		t.Fatalf("a closed family started a build: %+v", st)
	}
}

func mustLive(ix *Index) []vec.Point {
	live, _ := ix.livePoints()
	return live
}

func weights(W [][]float64) []vec.Weight {
	ws := make([]vec.Weight, len(W))
	for i, w := range W {
		ws[i] = w
	}
	return ws
}

// TestEngineClosedRejectsCacheHit pins Close's contract on the result
// cache: a query answered before Close fails with ErrEngineClosed after
// it, even though its answer is cached.
func TestEngineClosedRejectsCacheHit(t *testing.T) {
	e, _ := testEngine(t, 200, 3, EngineConfig{})
	req := TopKRequest{W: []float64{0.2, 0.3, 0.5}, K: 3}
	if _, err := e.TopKCtx(t.Context(), req); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopKCtx(t.Context(), req); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("cached query after Close: %v, want ErrEngineClosed", err)
	}
}
