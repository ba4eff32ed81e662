package wqrtq

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"wqrtq/internal/dataset"
	"wqrtq/internal/sample"
)

func testEngine(t *testing.T, n, d int, cfg EngineConfig) (*Engine, *Index) {
	t.Helper()
	return testEngineOver(t, n, d, cfg, func(*Index) {})
}

// testEngineOver is testEngine with prep applied to the index before the
// engine takes ownership of it: how a suite puts a whole engine on a
// reference path (the unexported skyOff / cellOff fields).
func testEngineOver(t *testing.T, n, d int, cfg EngineConfig, prep func(*Index)) (*Engine, *Index) {
	t.Helper()
	ds := dataset.Independent(n, d, 7)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	prep(ix)
	e, err := NewEngine(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e, ix
}

func TestEngineMatchesIndex(t *testing.T) {
	e, _ := testEngine(t, 500, 3, EngineConfig{})
	snap := e.Snapshot()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		w := []float64(sample.RandSimplex(rng, 3))
		q := []float64{rng.Float64() * 0.1, rng.Float64() * 0.1, rng.Float64() * 0.1}
		k := 1 + rng.Intn(10)

		gotResp, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: k})
		got := gotResp.Result
		if err != nil {
			t.Fatal(err)
		}
		want, _ := snap.TopK(w, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK mismatch: %v vs %v", got, want)
		}

		grResp, err := e.RankCtx(context.Background(), RankRequest{W: w, Q: q})
		gr := grResp.Rank
		if err != nil {
			t.Fatal(err)
		}
		wr, _ := snap.Rank(w, q)
		if gr != wr {
			t.Fatalf("Rank mismatch: %d vs %d", gr, wr)
		}

		W := make([][]float64, 1+rng.Intn(5))
		for j := range W {
			W[j] = sample.RandSimplex(rng, 3)
		}
		giResp, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{W: W, Q: q, K: k})
		gi := giResp.Result
		if err != nil {
			t.Fatal(err)
		}
		wi, _ := snap.ReverseTopK(W, q, k)
		if !reflect.DeepEqual(gi, wi) {
			t.Fatalf("ReverseTopK mismatch: %v vs %v", gi, wi)
		}

		geResp, err := e.ExplainCtx(context.Background(), ExplainRequest{Q: q, Wm: W})
		ge := geResp.Explanations
		if err != nil {
			t.Fatal(err)
		}
		we, _ := snap.Explain(q, W)
		if !reflect.DeepEqual(ge, we) {
			t.Fatal("Explain mismatch")
		}
	}
}

func TestEngineWhyNot(t *testing.T) {
	e, _ := testEngine(t, 300, 2, EngineConfig{})
	rng := rand.New(rand.NewSource(2))
	q := []float64{0.05, 0.08}
	W := make([][]float64, 6)
	for j := range W {
		W[j] = sample.RandSimplex(rng, 2)
	}
	opts := Options{SampleSize: 64, Seed: 3}
	gotResp, err := e.WhyNotCtx(context.Background(), WhyNotRequest{Q: q, K: 3, W: W, Opts: opts})
	got, epoch := gotResp.Answer, gotResp.Epoch
	if err != nil {
		t.Fatal(err)
	}
	if epoch != e.Epoch() {
		t.Fatalf("epoch %d, current %d", epoch, e.Epoch())
	}
	want, err := e.Snapshot().WhyNot(q, 3, W, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Missing, want.Missing) {
		t.Fatalf("WhyNot mismatch: %+v vs %+v", got, want)
	}
}

func TestEngineValidation(t *testing.T) {
	e, _ := testEngine(t, 100, 3, EngineConfig{})
	if _, err := e.TopKCtx(context.Background(), TopKRequest{W: []float64{0.5, 0.5}, K: 3}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := e.TopKCtx(context.Background(), TopKRequest{W: []float64{0.2, 0.3, 0.5}, K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := e.RankCtx(context.Background(), RankRequest{W: []float64{0.2, 0.3, 0.5}, Q: []float64{1}}); err == nil {
		t.Fatal("bad point accepted")
	}
	if _, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{W: nil, Q: []float64{1, 2, 3}, K: 5}); err == nil {
		t.Fatal("empty weight set accepted")
	}
	if _, _, err := e.Insert([]float64{1, 2}); err == nil {
		t.Fatal("bad insert accepted")
	}
	if _, _, err := e.Delete(-1); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestEngineMutationsPublishNewSnapshots(t *testing.T) {
	e, _ := testEngine(t, 50, 2, EngineConfig{})
	before := e.Snapshot()
	e0 := e.Epoch()

	id, e1, err := e.Insert([]float64{0.001, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if id != 50 {
		t.Fatalf("id = %d, want 50", id)
	}
	if e1 <= e0 {
		t.Fatalf("epoch did not advance: %d → %d", e0, e1)
	}
	if before.Len() != 50 || before.NumIDs() != 50 {
		t.Fatalf("old snapshot changed: Len %d NumIDs %d", before.Len(), before.NumIDs())
	}
	after := e.Snapshot()
	if after.Len() != 51 || after.Point(50) == nil {
		t.Fatalf("new snapshot missing insert: Len %d", after.Len())
	}

	// The new point is cheap enough to rank first under any weight.
	resResp, err := e.TopKCtx(context.Background(), TopKRequest{W: []float64{0.5, 0.5}, K: 1})
	res := resResp.Result
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 50 {
		t.Fatalf("top-1 is %d, want the inserted 50", res[0].ID)
	}

	ok, e2, err := e.Delete(50)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if e2 <= e1 {
		t.Fatalf("epoch did not advance on delete: %d → %d", e1, e2)
	}
	if after.Point(50) == nil {
		t.Fatal("pre-delete snapshot lost the point")
	}
	if e.Snapshot().Point(50) != nil {
		t.Fatal("current snapshot still has the deleted point")
	}
	// Deleting again reports not-found without a new epoch.
	ok, e3, err := e.Delete(50)
	if err != nil || ok {
		t.Fatalf("second delete: %v %v", ok, err)
	}
	if e3 != e2 {
		t.Fatalf("failed delete advanced the epoch: %d → %d", e2, e3)
	}
}

func TestEngineCache(t *testing.T) {
	e, _ := testEngine(t, 400, 3, EngineConfig{CacheSize: 64})
	w := []float64{0.2, 0.3, 0.5}
	r1Resp, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: 5})
	r1, ep1 := r1Resp.Result, r1Resp.Epoch
	if err != nil {
		t.Fatal(err)
	}
	r2Resp, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: 5})
	r2, ep2 := r2Resp.Result, r2Resp.Epoch
	if err != nil {
		t.Fatal(err)
	}
	if ep1 != ep2 || !reflect.DeepEqual(r1, r2) {
		t.Fatal("cached result differs")
	}
	s := e.Stats()
	if s.CacheHits == 0 {
		t.Fatalf("no cache hits recorded: %+v", s)
	}
	// A mutation moves the epoch, so the same query recomputes against the
	// new snapshot rather than serving the stale entry.
	if _, _, err := e.Insert([]float64{0.0001, 0.0001, 0.0001}); err != nil {
		t.Fatal(err)
	}
	r3Resp, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: 5})
	r3, ep3 := r3Resp.Result, r3Resp.Epoch
	if err != nil {
		t.Fatal(err)
	}
	if ep3 == ep1 {
		t.Fatal("epoch unchanged after insert")
	}
	if r3[0].ID != 400 {
		t.Fatalf("stale cache: top-1 is %d, want 400", r3[0].ID)
	}
}

// TestEngineCacheKeysResolvedOptions pins that a refinement's cache key is
// what its answer depends on: Options{} is the same query as its defaults
// spelled out.
func TestEngineCacheKeysResolvedOptions(t *testing.T) {
	e, ix := testEngine(t, 400, 3, EngineConfig{CacheSize: 64})
	top, err := ix.TopK([]float64{0.3, 0.3, 0.4}, 40)
	if err != nil {
		t.Fatal(err)
	}
	q, wm := top[39].Point, [][]float64{{0.6, 0.2, 0.2}}
	hits := func() int64 { return e.Stats().CacheHits }

	ctx := context.Background()
	defaults, err := e.ModifyAllCtx(ctx, ModifyAllRequest{Q: q, K: 10, Wm: wm})
	if err != nil {
		t.Fatal(err)
	}
	before := hits()
	spelled, err := e.ModifyAllCtx(ctx, ModifyAllRequest{Q: q, K: 10, Wm: wm, Opts: Options{SampleSize: 800, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if hits() != before+1 || !reflect.DeepEqual(spelled.Refinement, defaults.Refinement) {
		t.Fatalf("Options{SampleSize: 800, Seed: 1} after Options{}: %d cache hits, want 1", hits()-before)
	}
}

func TestEngineConcurrentDistinctWeightSets(t *testing.T) {
	// Many concurrent ReverseTopK requests share (q, k) but carry different
	// weight sets, so they contend for the compute slots together; each
	// must get exactly its own per-request result.
	e, ix := testEngine(t, 2000, 3, EngineConfig{CacheSize: -1})
	q := []float64{0.02, 0.03, 0.02}
	const clients, reqs = 8, 20
	rng := rand.New(rand.NewSource(9))
	workloads := make([][][][]float64, clients)
	for c := range workloads {
		workloads[c] = make([][][]float64, reqs)
		for r := range workloads[c] {
			W := make([][]float64, 1+rng.Intn(4))
			for j := range W {
				W[j] = sample.RandSimplex(rng, 3)
			}
			workloads[c][r] = W
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, W := range workloads[c] {
				gotResp, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{W: W, Q: q, K: 10})
				got := gotResp.Result
				if err != nil {
					errs <- err
					return
				}
				want, err := ix.ReverseTopK(W, q, 10)
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(want) {
					t.Errorf("result %v, want %v", got, want)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("result %v, want %v", got, want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineIdenticalConcurrentRequests sends 64 identical cold reverse
// top-k requests at once, plus 16 more whose callers give up while they
// wait for a compute slot. Every surviving caller gets the Index's answer,
// and the survivors run at most one computation per slot: the first run
// deposits before it gives its slot back, so every later holder finds the
// answer in the cache.
func TestEngineIdenticalConcurrentRequests(t *testing.T) {
	e, ix := testEngine(t, 2000, 3, EngineConfig{Admission: true})
	req := ReverseTopKRequest{Q: []float64{0.02, 0.03, 0.02}, K: 10, W: [][]float64{{0.2, 0.3, 0.5}, {0.6, 0.2, 0.2}, {0.1, 0.1, 0.8}}}
	want, err := ix.ReverseTopK(req.W, req.Q, req.K)
	if err != nil {
		t.Fatal(err)
	}
	const survivors, quitters = 64, 16
	release := takeSlots(e)
	gone, cancel := context.WithCancel(context.Background())
	quit := make(chan error, quitters)
	for range quitters {
		go func() {
			_, err := e.ReverseTopKCtx(gone, req)
			quit <- err
		}()
	}
	got := make([]ReverseTopKResponse, survivors)
	errs := make([]error, survivors)
	var wg sync.WaitGroup
	for i := range survivors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = e.ReverseTopKCtx(context.Background(), req)
		}()
	}
	waitAdmitted(e, survivors+quitters)
	cancel()
	for range quitters {
		if err := <-quit; !errors.Is(err, context.Canceled) {
			t.Fatalf("caller gone while waiting: err = %v, want context.Canceled", err)
		}
	}
	release()
	wg.Wait()
	for i := range survivors {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i].Result, want) {
			t.Fatalf("request %d: result %v, want %v", i, got[i].Result, want)
		}
	}
	if runs := e.Stats().RTA["rtopk"].Runs; runs < 1 || runs > int64(runtime.GOMAXPROCS(0)) {
		t.Fatalf("%d identical requests ran %d times, want 1 to %d (the slot count)", survivors, runs, runtime.GOMAXPROCS(0))
	}
}

// TestEngineClose: Close waits for the computations in flight, and every
// later call fails with ErrEngineClosed.
func TestEngineClose(t *testing.T) {
	e, _ := testEngine(t, 50, 2, EngineConfig{})
	if err := e.pool.Acquire(context.Background()); err != nil { // a computation in flight
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a computation held its slot")
	case <-time.After(20 * time.Millisecond):
	}
	e.pool.Release()
	<-closed
	if _, err := e.TopKCtx(context.Background(), TopKRequest{W: []float64{0.5, 0.5}, K: 1}); err != ErrEngineClosed {
		t.Fatalf("TopK after close: %v", err)
	}
	if _, _, err := e.Insert([]float64{1, 1}); err != ErrEngineClosed {
		t.Fatalf("Insert after close: %v", err)
	}
	if _, _, err := e.Delete(0); err != ErrEngineClosed {
		t.Fatalf("Delete after close: %v", err)
	}
	e.Close() // idempotent
}

func TestEngineStatsEndpoints(t *testing.T) {
	e, _ := testEngine(t, 100, 2, EngineConfig{})
	if _, err := e.TopKCtx(context.Background(), TopKRequest{W: []float64{0.5, 0.5}, K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RankCtx(context.Background(), RankRequest{W: []float64{0.5, 0.5}, Q: []float64{0.1, 0.1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Insert([]float64{0.3, 0.3}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	for _, ep := range []string{"topk", "rank", "insert"} {
		if s.Endpoints[ep].Count == 0 {
			t.Fatalf("endpoint %q unrecorded: %+v", ep, s.Endpoints)
		}
	}
	if s.Live != 101 || s.NumIDs != 101 {
		t.Fatalf("Live/NumIDs = %d/%d, want 101/101", s.Live, s.NumIDs)
	}
}

func TestIndexCloneIsolation(t *testing.T) {
	ds := dataset.Independent(300, 3, 11)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	snap := ix.Clone()
	for i := 0; i < 100; i++ {
		if _, err := ix.Insert([]float64{float64(i) * 1e-4, 0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 150; id++ {
		if _, err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := snap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 300 || snap.NumIDs() != 300 {
		t.Fatalf("snapshot changed: Len %d NumIDs %d", snap.Len(), snap.NumIDs())
	}
	if ix.Len() != 250 {
		t.Fatalf("mutated index Len = %d, want 250", ix.Len())
	}
	for id := 0; id < 150; id++ {
		if snap.Point(id) == nil {
			t.Fatalf("snapshot lost point %d", id)
		}
	}
}
