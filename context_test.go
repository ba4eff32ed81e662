package wqrtq

// Cancellation tests for the context-first API: already-canceled contexts
// return promptly at every layer, a deadline set mid-refinement aborts the
// MQWK sampling loops within one check interval, a reverse top-k canceled
// between two of its thousands of count descents stops at the poll that
// says so, on the Index and through the engine alike.

import (
	"context"
	"errors"
	"math/rand"
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
// return ctx.Err() at the poll that reports it, on the Index and through
// the engine, whose run polls the caller's own context; the canceled
// engine run adds nothing to the reverse top-k totals.
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

		if _, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: q, K: k, W: W}); err != nil {
			t.Fatal(err) // builds the engine snapshot's band, outside the polls counted below
		}
		before := e.Stats().RTA["rtopk"]
		for path, run := range map[string]func(context.Context, ReverseTopKRequest) (ReverseTopKResponse, error){"Index": ix.ReverseTopKCtx, "Engine": e.ReverseTopKCtx} {
			ctx := &tripCtx{Context: live, trip: trip}
			if _, err := run(ctx, ReverseTopKRequest{Q: q, K: k, W: W}); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: %s error = %v, want context.Canceled", name, path, err)
			}
			if got := ctx.polls.Load(); got != trip {
				t.Fatalf("%s: %s polled ctx %d times, want to stop at poll %d", name, path, got, trip)
			}
		}
		if after := e.Stats().RTA["rtopk"]; after != before {
			t.Fatalf("%s: canceled run was added to the totals: %+v -> %+v", name, before, after)
		}
	}
}
