package wqrtq

// Cancellation tests for the context-first API: already-canceled contexts
// return promptly at every layer, a deadline set mid-refinement aborts the
// MQWK sampling loops within one check interval, a reverse top-k canceled
// between two of its thousands of count descents stops at the poll that
// says so, and a canceled waiter of a deduplicated request never aborts
// its co-waiters.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"wqrtq/internal/dataset"
	"wqrtq/internal/sample"
)

// testWorkload builds a 10k-point index plus a why-not workload whose query
// point actually misses the top-k (so WhyNot runs all three refinements).
func testWorkload(t testing.TB, n int) (*Index, WhyNotRequest) {
	t.Helper()
	ds := dataset.Independent(n, 3, 7)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := dataset.MakeWhyNot(ds, 10, 101, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	wm := make([][]float64, len(wl.Wm))
	for i, w := range wl.Wm {
		wm[i] = w
	}
	return ix, WhyNotRequest{Q: wl.Q, K: wl.K, W: wm, Opts: Options{SampleSize: 128}}
}

func TestWhyNotCtxAlreadyCanceled(t *testing.T) {
	ix, req := testWorkload(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	_, err := ix.WhyNotCtx(ctx, req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WhyNotCtx error = %v, want context.Canceled", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("already-canceled WhyNotCtx took %v, want prompt return", elapsed)
	}

	// Every other Index path must also notice the dead context up front.
	if _, err := ix.TopKCtx(ctx, TopKRequest{W: req.W[0], K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKCtx error = %v", err)
	}
	if _, err := ix.RankCtx(ctx, RankRequest{W: req.W[0], Q: req.Q}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RankCtx error = %v", err)
	}
	if _, err := ix.ReverseTopKCtx(ctx, ReverseTopKRequest{Q: req.Q, K: req.K, W: req.W}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReverseTopKCtx error = %v", err)
	}
	if _, err := ix.ExplainCtx(ctx, ExplainRequest{Q: req.Q, Wm: req.W}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExplainCtx error = %v", err)
	}
	if _, err := ix.ModifyQueryCtx(ctx, ModifyQueryRequest{Q: req.Q, K: req.K, Wm: req.W}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ModifyQueryCtx error = %v", err)
	}
	if _, err := ix.ModifyPreferencesCtx(ctx, ModifyPreferencesRequest{Q: req.Q, K: req.K, Wm: req.W}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ModifyPreferencesCtx error = %v", err)
	}
	if _, err := ix.ModifyAllCtx(ctx, ModifyAllRequest{Q: req.Q, K: req.K, Wm: req.W}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ModifyAllCtx error = %v", err)
	}
}

func TestEngineWhyNotCtxAlreadyCanceledCountsInStats(t *testing.T) {
	ix, req := testWorkload(t, 2000)
	e, err := NewEngine(ix, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.WhyNotCtx(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("engine WhyNotCtx error = %v, want context.Canceled", err)
	}
	s := e.Stats()
	if s.Canceled != 1 {
		t.Fatalf("stats canceled = %d, want 1", s.Canceled)
	}
	if s.Endpoints["whynot"].Canceled != 1 {
		t.Fatalf("whynot canceled = %d, want 1", s.Endpoints["whynot"].Canceled)
	}
}

// TestWhyNotDeadlineMidRefinement runs the full refinement once to measure
// its cost, then re-runs it with a deadline a small fraction of that and
// asserts the abort lands well under the full runtime — i.e. within a few
// check intervals of the MQWK sampling loops, not at their natural end.
//
// The workload is sized — by its sample counts, |S| = |Q| = 600, since the
// per-sample cost no longer grows with the dataset — so the full pipeline
// takes hundreds of milliseconds on a warm index: cancellation detection
// rides on goroutine scheduling (a deadline context's Err flips only after
// the timer goroutine runs), which on a saturated single-CPU machine has a
// floor of tens of milliseconds — the elapsed < full/2 assertion needs the
// full runtime to dominate that floor, not the polling intervals. One
// untimed call first builds the lazy bands, which are per-index work the
// deadline run would not repeat: timing a cold run against a warm one
// would measure the bands, not the abort.
func TestWhyNotDeadlineMidRefinement(t *testing.T) {
	ix, req := testWorkload(t, 40000)
	req.Opts.SampleSize = 600
	if _, err := ix.WhyNotCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if _, err := ix.WhyNotCtx(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	deadline := full / 20
	if deadline < 2*time.Millisecond {
		deadline = 2 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start = time.Now()
	_, err := ix.WhyNotCtx(ctx, req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run error = %v, want context.DeadlineExceeded (full run took %v)", err, full)
	}
	if elapsed > full/2 {
		t.Fatalf("deadline run took %v, want well under full runtime %v", elapsed, full)
	}
	t.Logf("full pipeline %v; canceled after %v with a %v deadline", full, elapsed, deadline)

	// Explicit cancel mid-flight (not a deadline) returns context.Canceled,
	// likewise well under the full runtime.
	cctx, ccancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(deadline)
		ccancel()
	}()
	start = time.Now()
	_, err = ix.WhyNotCtx(cctx, req)
	elapsed = time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel run error = %v, want context.Canceled", err)
	}
	if elapsed > full/2 {
		t.Fatalf("cancel run took %v, want well under full runtime %v", elapsed, full)
	}
}

// tripCtx cancels itself on its trip-th Err poll and counts every poll. A
// computation that stops at the poll reporting the cancellation leaves
// polls == trip; one that never polls runs to completion and returns nil.
type tripCtx struct {
	context.Context // cancelable, so Done is non-nil and tickers arm
	trip            int64
	polls           atomic.Int64
}

func (c *tripCtx) Err() error {
	if c.polls.Add(1) >= c.trip {
		return context.Canceled
	}
	return nil
}

// TestReverseTopKCancelMidCountDescents cancels a d = 13 reverse top-k of
// 5 000 vectors mid-request. Below the cell grid every vector is one count
// descent, and all of them tick one ticker, once per tree node: a request
// of many short descents (a query point deep in the data: each descent
// meets its k-th beater within a node or two, far below any per-descent
// interval) and one of long descents (a competitive query point) must both
// return ctx.Err() at the poll that reports it on the Index. Through the
// engine's executor, a deduplicated pair whose waiters are both gone
// aborts its one shared run, answers each waiter with context.Canceled,
// and adds nothing to the reverse top-k totals.
func TestReverseTopKCancelMidCountDescents(t *testing.T) {
	const k, trip = 10, 50
	ds := dataset.NBALike(17265, 11)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	W := make([][]float64, 5000)
	for i := range W {
		W[i] = sample.RandSimplex(rng, ds.Dim)
	}
	top, err := ix.TopK(W[0], k)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ix.Clone(), EngineConfig{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := e.Snapshot()
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for name, q := range map[string][]float64{"short descents": pts[0], "long descents": top[k-1].Point} {
		full, err := ix.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: q, K: k, W: W}) // also builds the band
		if err != nil {
			t.Fatal(err)
		}
		if name == "short descents" && len(full.Result) != 0 || name == "long descents" && len(full.Result) == 0 {
			t.Fatalf("%s: %d of %d vectors in the result", name, len(full.Result), len(W))
		}

		ctx := &tripCtx{Context: live, trip: trip}
		if _, err := ix.ReverseTopKCtx(ctx, ReverseTopKRequest{Q: q, K: k, W: W}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Index error = %v, want context.Canceled", name, err)
		}
		if got := ctx.polls.Load(); got != trip {
			t.Fatalf("%s: Index polled ctx %d times, want to stop at poll %d", name, got, trip)
		}

	}

	// Two identical requests, one run. Each waiter's context passes the
	// executor's shed check (its first poll) with its Done already closed,
	// so the shared context's watcher cancels the run once it is scheduled.
	// A pair's run polls that shared context, not any waiter's, so there is
	// no exact poll to pin here; the long-descent point keeps the run
	// (~40 ms uncanceled on a 2-vCPU Xeon) well past the scheduler's
	// 10 ms preemption, so the watcher always lands mid-run.
	q := top[k-1].Point
	pair := []*engineReq{batchReq(t, snap, deadTrip(), q, k, W), batchReq(t, snap, deadTrip(), q, k, W)}
	before := e.Stats().RTA["rtopk"]
	e.exec(pair)
	for _, r := range pair {
		resp := <-r.done
		if resp.val != nil || !errors.Is(resp.err, context.Canceled) {
			t.Fatalf("deduplicated waiter got (%v, %v), want context.Canceled", resp.val, resp.err)
		}
		if got := r.ctx.(*tripCtx).polls.Load(); got != 2 {
			t.Fatalf("waiter ctx polled %d times, want 2 (shed check, own error)", got)
		}
	}
	if after := e.Stats().RTA["rtopk"]; after != before {
		t.Fatalf("canceled run was added to the totals: %+v -> %+v", before, after)
	}
}

// deadTrip returns a context whose Done is already closed but whose first
// Err poll still reports it live: a waiter the executor admits into a batch
// and that is gone for the whole of the run that follows.
func deadTrip() *tripCtx {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	return &tripCtx{Context: dead, trip: 2}
}

// batchReq validates a reverse top-k request on snap and wraps it as the
// executor receives it from the pool.
func batchReq(t *testing.T, snap *Index, ctx context.Context, q []float64, k int, W [][]float64) *engineReq {
	t.Helper()
	a := query{kind: kindRTopK, set: W, q: q, k: k}
	if err := snap.validate(&a); err != nil {
		t.Fatal(err)
	}
	return &engineReq{query: a, ctx: ctx, key: argKey(&a), done: make(chan engineResp, 1)}
}

// TestDedupedBatchSurvivesCoWaiterCancel verifies the all-waiters-cancel
// rule on one batch holding two identical reverse top-k requests: they run
// once, and the waiter that is gone before the run starts does not abort
// it — the survivor receives the correct answer. (The gone waiter's caller
// has already returned its own ctx.Err() from Engine.serve's select.)
func TestDedupedBatchSurvivesCoWaiterCancel(t *testing.T) {
	ix, req := testWorkload(t, 2000)
	e, err := NewEngine(ix.Clone(), EngineConfig{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want, err := ix.ReverseTopK(req.W, req.Q, req.K)
	if err != nil {
		t.Fatal(err)
	}

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap := e.Snapshot()
	gone := batchReq(t, snap, deadTrip(), req.Q, req.K, req.W)
	survivor := batchReq(t, snap, live, req.Q, req.K, req.W)
	before := e.Stats().RTA["rtopk"].Runs
	e.exec([]*engineReq{gone, survivor})

	resp := <-survivor.done
	if resp.err != nil {
		t.Fatalf("surviving waiter error = %v, want success", resp.err)
	}
	if got := resp.val.(rtopkVal).res; !reflect.DeepEqual(got, want) {
		t.Fatalf("survivor result %v, want %v", got, want)
	}
	if gone.ctx.Err() == nil {
		t.Fatal("the gone waiter's context still reports live")
	}
	if runs := e.Stats().RTA["rtopk"].Runs - before; runs != 1 {
		t.Fatalf("two identical requests ran %d times, want 1", runs)
	}
}

// TestCompCtxCancelsOnlyWhenAllWaitersCancel exercises the shared-
// computation context directly: it must stay live while any waiter is live,
// cancel soon after the last waiter cancels, and collapse to the never-
// canceled Background when any waiter cannot cancel.
func TestCompCtxCancelsOnlyWhenAllWaitersCancel(t *testing.T) {
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cctx, stop := compCtx([]*engineReq{{ctx: ctx1}, {ctx: ctx2}})
	defer stop()

	cancel1()
	select {
	case <-cctx.Done():
		t.Fatal("computation context canceled while a waiter was still live")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	select {
	case <-cctx.Done():
	case <-time.After(time.Second):
		t.Fatal("computation context not canceled after all waiters canceled")
	}

	// One uncancelable waiter pins the computation alive.
	cctx2, stop2 := compCtx([]*engineReq{{ctx: ctx1}, {ctx: context.Background()}})
	defer stop2()
	if cctx2.Done() != nil {
		t.Fatal("computation with an uncancelable waiter must never cancel")
	}
}
