package wqrtq

// Tests of the one request pipeline (request.go's kinds table, Index.serve,
// Engine.serve): every kind validates the same way on both serving paths,
// and every exit of the engine path is observed exactly once.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"wqrtq/internal/admission"
	"wqrtq/internal/engine"
)

// callKind sends a through the public typed method of its kind on both
// serving paths.
func callKind(ctx context.Context, ix *Index, e *Engine, a query) (ierr, eerr error) {
	switch a.kind {
	case kindTopK:
		req := TopKRequest{W: a.w, K: a.k}
		_, ierr = ix.TopKCtx(ctx, req)
		_, eerr = e.TopKCtx(ctx, req)
	case kindRank:
		req := RankRequest{W: a.w, Q: a.q}
		_, ierr = ix.RankCtx(ctx, req)
		_, eerr = e.RankCtx(ctx, req)
	case kindRTopK:
		req := ReverseTopKRequest{Q: a.q, K: a.k, W: a.set}
		_, ierr = ix.ReverseTopKCtx(ctx, req)
		_, eerr = e.ReverseTopKCtx(ctx, req)
	case kindExplain:
		req := ExplainRequest{Q: a.q, Wm: a.set}
		_, ierr = ix.ExplainCtx(ctx, req)
		_, eerr = e.ExplainCtx(ctx, req)
	case kindWhyNot:
		req := WhyNotRequest{Q: a.q, K: a.k, W: a.set, Opts: a.opts}
		_, ierr = ix.WhyNotCtx(ctx, req)
		_, eerr = e.WhyNotCtx(ctx, req)
	case kindModifyQuery:
		req := ModifyQueryRequest{Q: a.q, K: a.k, Wm: a.set, Opts: a.opts}
		_, ierr = ix.ModifyQueryCtx(ctx, req)
		_, eerr = e.ModifyQueryCtx(ctx, req)
	case kindModifyPreferences:
		req := ModifyPreferencesRequest{Q: a.q, K: a.k, Wm: a.set, Opts: a.opts}
		_, ierr = ix.ModifyPreferencesCtx(ctx, req)
		_, eerr = e.ModifyPreferencesCtx(ctx, req)
	case kindModifyAll:
		req := ModifyAllRequest{Q: a.q, K: a.k, Wm: a.set, Opts: a.opts}
		_, ierr = ix.ModifyAllCtx(ctx, req)
		_, eerr = e.ModifyAllCtx(ctx, req)
	}
	return ierr, eerr
}

// TestValidationSameOnBothPaths is the table the single Index.validate is
// pinned by: for every kind and every way a field it carries can be wrong,
// Index.XCtx and Engine.XCtx reject with the same text, tagged
// ErrInvalidArgument. The base request is valid and — its query point
// dominating the dataset — leaves whynot nothing to refine, the case in
// which bad Options used to slip through.
func TestValidationSameOnBothPaths(t *testing.T) {
	e, ix := testEngine(t, 200, 3, EngineConfig{})
	ctx := context.Background()
	okW := []float64{0.2, 0.3, 0.5}
	base := func(k kind) query {
		return query{kind: k, w: okW, set: [][]float64{okW, {0.5, 0.25, 0.25}}, q: []float64{0, 0, 0}, k: 3,
			opts: Options{SampleSize: 8, Seed: 1}}
	}
	type breakage struct {
		name  string
		field func(kindSpec) bool // does the kind carry what this breaks?
		apply func(*query)
	}
	breakages := []breakage{
		{"q wrong dimension", func(s kindSpec) bool { return s.q }, func(a *query) { a.q = []float64{0.1, 0.1} }},
		{"q negative", func(s kindSpec) bool { return s.q }, func(a *query) { a.q = []float64{-1, 0.1, 0.1} }},
		{"q NaN", func(s kindSpec) bool { return s.q }, func(a *query) { a.q = []float64{math.NaN(), 0.1, 0.1} }},
		{"w wrong dimension", func(s kindSpec) bool { return s.w }, func(a *query) { a.w = []float64{0.5, 0.5} }},
		{"w not normalized", func(s kindSpec) bool { return s.w }, func(a *query) { a.w = []float64{0.9, 0.9, 0.9} }},
		{"w empty", func(s kindSpec) bool { return s.w }, func(a *query) { a.w = nil }},
		{"set vector wrong dimension", func(s kindSpec) bool { return s.set }, func(a *query) { a.set = [][]float64{okW, {0.5, 0.5}} }},
		{"set vector not normalized", func(s kindSpec) bool { return s.set }, func(a *query) { a.set = [][]float64{{0.9, 0.9, 0.9}} }},
		{"set empty", func(s kindSpec) bool { return s.set }, func(a *query) { a.set = nil }},
		{"k zero", func(s kindSpec) bool { return s.k }, func(a *query) { a.k = 0 }},
		{"k negative", func(s kindSpec) bool { return s.k }, func(a *query) { a.k = -2 }},
		{"negative SampleSize", func(s kindSpec) bool { return s.opts }, func(a *query) { a.opts.SampleSize = -1 }},
		{"penalty weights off the simplex", func(s kindSpec) bool { return s.opts }, func(a *query) { a.opts.Penalty = PenaltyModel{Alpha: 0.9, Beta: 0.9} }},
		{"penalty weight negative", func(s kindSpec) bool { return s.opts }, func(a *query) { a.opts.Penalty = PenaltyModel{Gamma: -0.5, Lambda: 1.5} }},
	}
	for k := kind(0); k < numKinds; k++ {
		spec := kinds[k]
		t.Run(spec.name, func(t *testing.T) {
			if ierr, eerr := callKind(ctx, ix, e, base(k)); ierr != nil || eerr != nil {
				t.Fatalf("base request rejected: Index %v, Engine %v", ierr, eerr)
			}
			covered := 0
			for _, b := range breakages {
				if !b.field(spec) {
					continue
				}
				covered++
				a := base(k)
				b.apply(&a)
				ierr, eerr := callKind(ctx, ix, e, a)
				if !errors.Is(ierr, ErrInvalidArgument) {
					t.Errorf("%s: Index error %v is not ErrInvalidArgument", b.name, ierr)
				}
				if !errors.Is(eerr, ErrInvalidArgument) {
					t.Errorf("%s: Engine error %v is not ErrInvalidArgument", b.name, eerr)
				}
				if ierr != nil && eerr != nil && ierr.Error() != eerr.Error() {
					t.Errorf("%s: paths disagree:\n  Index:  %v\n  Engine: %v", b.name, ierr, eerr)
				}
			}
			if covered == 0 {
				t.Fatalf("no breakage applies to kind %s", spec.name)
			}
		})
	}
}

// endpointDelta runs f and returns how the named endpoint's counters moved.
func endpointDelta(e *Engine, name string, f func()) engine.CounterSnapshot {
	before := e.Stats().Endpoints[name]
	f()
	after := e.Stats().Endpoints[name]
	return engine.CounterSnapshot{
		Count:    after.Count - before.Count,
		Errors:   after.Errors - before.Errors,
		Canceled: after.Canceled - before.Canceled,
	}
}

// takeSlots holds every compute slot of e, so a request that reaches the
// slot wait stays there, and returns the function that gives them back.
func takeSlots(e *Engine) (release func()) {
	for range runtime.GOMAXPROCS(0) {
		if err := e.pool.Acquire(context.Background()); err != nil {
			panic(err)
		}
	}
	return func() {
		for range runtime.GOMAXPROCS(0) {
			e.pool.Release()
		}
	}
}

// waitAdmitted blocks until n query-class requests are past the admission
// door: from there each reaches the slot wait with nothing left to block on.
func waitAdmitted(e *Engine, n int64) {
	for e.Stats().Admission["query"].Inflight < n {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestEngineObservesEveryExitOnce drives each exit of Engine.serve and
// checks that the kind's endpoint counters move by exactly one request —
// with the error and cancellation marks the exit calls for — and that the
// admission class's in-flight gauge returns to zero.
func TestEngineObservesEveryExitOnce(t *testing.T) {
	okW := []float64{0.2, 0.3, 0.5}
	topk := func(ctx context.Context, e *Engine, w []float64) error {
		_, err := e.TopKCtx(ctx, TopKRequest{W: w, K: 3})
		return err
	}
	fresh := func(i int) []float64 { // distinct valid weights, so no cache hit
		return []float64{0.2 + 0.01*float64(i), 0.3, 0.5 - 0.01*float64(i)}
	}
	want := func(t *testing.T, exit string, got engine.CounterSnapshot, errs, canceled int64) {
		t.Helper()
		if got.Count != 1 || got.Errors != errs || got.Canceled != canceled {
			t.Errorf("%s: counters moved by count=%d errors=%d canceled=%d, want 1/%d/%d",
				exit, got.Count, got.Errors, got.Canceled, errs, canceled)
		}
	}
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("admission on", func(t *testing.T) {
		e, _ := testEngine(t, 200, 3, EngineConfig{Admission: true})
		ctx := context.Background()

		// Invalid argument at the door, for every kind: the one validate
		// sits inside the observed path.
		for k := kind(0); k < numKinds; k++ {
			a := query{kind: k, w: []float64{0.5, 0.5}, set: [][]float64{{0.5, 0.5}}, q: []float64{0, 0, 0}, k: 3}
			got := endpointDelta(e, kinds[k].name, func() {
				if _, err := callKind(ctx, e.Snapshot(), e, a); !errors.Is(err, ErrInvalidArgument) {
					t.Errorf("invalid %s: err = %v", kinds[k].name, err)
				}
			})
			want(t, "invalid "+kinds[k].name, got, 1, 0)
		}

		want(t, "already-canceled context", endpointDelta(e, "topk", func() {
			if err := topk(canceledCtx, e, okW); !errors.Is(err, context.Canceled) {
				t.Errorf("already-canceled: err = %v", err)
			}
		}), 1, 1)

		want(t, "success", endpointDelta(e, "topk", func() {
			if err := topk(ctx, e, okW); err != nil {
				t.Errorf("success: %v", err)
			}
		}), 0, 0)

		hits := e.Stats().CacheHits
		want(t, "cache hit", endpointDelta(e, "topk", func() {
			if err := topk(ctx, e, okW); err != nil {
				t.Errorf("cache hit: %v", err)
			}
		}), 0, 0)
		if e.Stats().CacheHits != hits+1 {
			t.Errorf("the repeated request was not a cache hit")
		}

		e.Admission().InjectErrors(1)
		want(t, "admission shed", endpointDelta(e, "topk", func() {
			if err := topk(ctx, e, fresh(1)); !errors.Is(err, ErrOverloaded) {
				t.Errorf("admission shed: err = %v", err)
			}
		}), 1, 0)

		release := takeSlots(e)
		want(t, "context ended while waiting for a slot", endpointDelta(e, "topk", func() {
			cctx, ccancel := context.WithCancel(ctx)
			done := make(chan error, 1)
			go func() { done <- topk(cctx, e, fresh(2)) }()
			waitAdmitted(e, 1)
			ccancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Errorf("canceled while waiting: err = %v", err)
			}
		}), 1, 1)

		// Doomed after the slot wait: the door passes a 10 s budget while
		// topk's median is the microseconds of its two successes above;
		// then three 20 s latencies enter topk's histogram (and nothing
		// else), so the median is 20 s, and the check that follows the wait
		// sheds the request, counted once in shed_doomed.
		doomedBefore := e.Stats().Admission["query"].ShedDoomed
		want(t, "doomed after the slot wait", endpointDelta(e, "topk", func() {
			dctx, dcancel := context.WithTimeout(ctx, 10*time.Second)
			defer dcancel()
			done := make(chan error, 1)
			go func() { done <- topk(dctx, e, fresh(3)) }()
			waitAdmitted(e, 1)
			for range 3 {
				e.metrics.Latency(int(kindTopK)).Observe(20 * time.Second)
			}
			release()
			var oe *OverloadError
			if err := <-done; !errors.As(err, &oe) || oe.Reason != admission.ReasonDoomed {
				t.Errorf("doomed after the slot wait: err = %v", err)
			}
		}), 1, 0)
		if d := e.Stats().Admission["query"].ShedDoomed - doomedBefore; d != 1 {
			t.Errorf("doomed after the slot wait moved shed_doomed by %d, want 1", d)
		}

		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		want(t, "engine closed", endpointDelta(e, "topk", func() {
			if err := topk(ctx, e, fresh(4)); !errors.Is(err, ErrEngineClosed) {
				t.Errorf("engine closed: err = %v", err)
			}
		}), 1, 0)

		if in := e.Stats().Admission["query"].Inflight; in != 0 {
			t.Errorf("query class inflight = %d after every request returned, want 0", in)
		}
	})

	t.Run("admission off", func(t *testing.T) {
		e, _ := testEngine(t, 200, 3, EngineConfig{})
		ctx := context.Background()

		// Without admission a caller waits for a slot until its context
		// ends.
		release := takeSlots(e)
		want(t, "context ended while waiting for a slot", endpointDelta(e, "topk", func() {
			tctx, tcancel := context.WithTimeout(ctx, 20*time.Millisecond)
			defer tcancel()
			if err := topk(tctx, e, okW); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("slots held: err = %v", err)
			}
		}), 1, 1)
		release()

		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		want(t, "engine closed", endpointDelta(e, "topk", func() {
			if err := topk(ctx, e, okW); !errors.Is(err, ErrEngineClosed) {
				t.Errorf("engine closed: err = %v", err)
			}
		}), 1, 0)
	})
}
