package wqrtq

// Chaos suite for the overload and degradation surfaces: transient WAL
// hiccups must heal through the retry ladder without degrading, persistent
// I/O failure must transition to read-only exactly once with queries still
// bit-identical to a healthy engine, Reopen must clear the state, and the
// admission door must shed under synthetic overload while the engine stays
// correct. The durability scenarios run on the fault-injection filesystem;
// no real disks are harmed.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"wqrtq/internal/admission"
	"wqrtq/internal/storage"
)

// TestWALTransientHiccupRecovers: a one-shot injected WAL error must be
// absorbed by the retry ladder — the mutation succeeds, the engine stays
// healthy, and the resulting durable state still recovers bit-identically.
func TestWALTransientHiccupRecovers(t *testing.T) {
	pts := basePoints("independent", 120, 3, 9)
	script, oracles := buildScript(t, pts, 30, 3)
	final := oracles[len(oracles)-1]

	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs))
	if err != nil {
		t.Fatal(err)
	}

	// First half clean, then a single injected failure lands on the next
	// WAL append; the ladder must recover the writer and retry through.
	half := len(script) / 2
	if n, err := applyScript(t, e, script[:half], nil); err != nil || n != half {
		t.Fatalf("clean half: %d acked, %v", n, err)
	}
	fs.InjectFailures(1)
	if n, err := applyScript(t, e, script[half:], nil); err != nil || n != len(script)-half {
		dumpFaultDir(t, fs)
		t.Fatalf("hiccup half: %d acked, %v", n, err)
	}
	if fs.InjectedCount() != 1 {
		t.Fatalf("injected %d failures, want 1", fs.InjectedCount())
	}

	ws := e.Stats().WAL
	if ws.Degraded || ws.Degradations != 0 {
		t.Fatalf("transient hiccup degraded the engine: %+v", ws)
	}
	if ws.Retries == 0 || ws.WriterRecoveries == 0 {
		t.Fatalf("retry ladder did not run: %+v", ws)
	}
	if h := e.Health(); !h.Live || !h.Ready || h.Degraded {
		t.Fatalf("health after transient hiccup: %+v", h)
	}
	liveBat := battery(t, e.Snapshot(), 42, false)
	if want := battery(t, final, 42, false); liveBat != want {
		t.Fatal("engine diverged from oracle across the retry ladder")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The recovered directory must reproduce the same state: the writer
	// recovery's snapshot-then-rotate left a verifiable chain behind.
	re, err := NewEngine(nil, durCfg(fs))
	if err != nil {
		dumpFaultDir(t, fs)
		t.Fatalf("recovery after hiccup: %v", err)
	}
	defer re.Close()
	if got := battery(t, re.Snapshot(), 42, false); got != liveBat {
		dumpFaultDir(t, fs)
		t.Fatal("recovered engine is not bit-identical after a retried append")
	}
}

// TestWALPersistentFailureDegradesReadOnly is the degradation-ladder proof:
// persistent WAL failure exhausts the retry budget, the engine transitions
// to read-only exactly once, mutations fail with ErrDegraded, queries stay
// bit-identical to a healthy engine over the same data, and a successful
// Reopen clears the state.
func TestWALPersistentFailureDegradesReadOnly(t *testing.T) {
	pts := basePoints("correlated", 150, 3, 11)
	script, oracles := buildScript(t, pts, 20, 5)

	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n, err := applyScript(t, e, script, nil); err != nil || n != len(script) {
		t.Fatalf("setup script: %d acked, %v", n, err)
	}
	healthy := oracles[len(oracles)-1]

	// The device goes away for good: every further op fails.
	fs.InjectFailures(1 << 30)
	_, _, err = e.Insert([]float64{0.5, 0.5, 0.5})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation on failing device: got %v, want ErrDegraded", err)
	}
	var de *DegradedError
	if !errors.As(err, &de) || de.Reason != "wal_append" {
		t.Fatalf("degraded error: %v", err)
	}
	if !errors.Is(de.Unwrap(), storage.ErrInjected) {
		t.Fatalf("degraded cause: %v", de.Unwrap())
	}

	// Exactly one transition, no matter how many mutations keep failing.
	if _, _, err := e.Insert([]float64{0.1, 0.2, 0.3}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second mutation: %v", err)
	}
	if ok, _, err := e.Delete(0); ok || !errors.Is(err, ErrDegraded) {
		t.Fatalf("delete while degraded: %v %v", ok, err)
	}
	ws := e.Stats().WAL
	if !ws.Degraded || ws.DegradedReason != "wal_append" || ws.Degradations != 1 {
		t.Fatalf("WAL stats while degraded: %+v", ws)
	}
	if h := e.Health(); !h.Live || !h.Ready || !h.Degraded || h.Reason != "wal_append" {
		t.Fatalf("health while degraded: %+v", h)
	}

	// The point of read-only mode: queries still serve, bit-identical to a
	// healthy engine over the same acknowledged data.
	if got, want := battery(t, e.Snapshot(), 77, true), battery(t, healthy, 77, true); got != want {
		t.Fatal("degraded engine queries diverge from the healthy oracle")
	}

	// Reopen with the device still failing: stays degraded.
	if err := e.Reopen(); err == nil {
		t.Fatal("Reopen succeeded while the device is still failing")
	}
	if h := e.Health(); !h.Degraded {
		t.Fatal("failed Reopen cleared the degraded state")
	}

	// Operator fixes the device: Reopen clears the latch and mutations flow.
	fs.InjectFailures(0)
	if err := e.Reopen(); err != nil {
		dumpFaultDir(t, fs)
		t.Fatalf("Reopen after device recovery: %v", err)
	}
	if h := e.Health(); h.Degraded {
		t.Fatalf("health after Reopen: %+v", h)
	}
	id, _, err := e.Insert([]float64{0.4, 0.4, 0.4})
	if err != nil {
		t.Fatalf("mutation after Reopen: %v", err)
	}
	if ws := e.Stats().WAL; ws.Degraded || ws.Degradations != 1 {
		t.Fatalf("WAL stats after Reopen: %+v", ws)
	}

	// And the durable state survives a restart, insert included.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewEngine(nil, durCfg(fs))
	if err != nil {
		dumpFaultDir(t, fs)
		t.Fatalf("recovery after degrade/reopen cycle: %v", err)
	}
	defer re.Close()
	if re.Snapshot().Point(id) == nil {
		t.Fatal("post-Reopen insert lost across recovery")
	}
}

// TestCheckpointFailureStreakDegrades: one failed checkpoint is retried and
// proves nothing; checkpointDegradeStreak consecutive failures latch
// read-only mode with reason checkpoint_io.
func TestCheckpointFailureStreakDegrades(t *testing.T) {
	pts := basePoints("independent", 60, 2, 3)
	fs := storage.NewFaultFS()
	seed, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(seed, durCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := e.Insert([]float64{0.3, 0.7}); err != nil {
		t.Fatal(err)
	}

	// One failure: healthy, retried later.
	fs.InjectFailures(1)
	if err := e.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded despite injected failure")
	}
	if e.Stats().WAL.Degraded {
		t.Fatal("single checkpoint failure degraded the engine")
	}
	// A success in between heals the streak.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// A persistent streak degrades. Each attempt needs fresh WAL progress
	// (a checkpoint at an unchanged LSN is a no-op), and the append itself
	// must succeed, so inject failures only around the checkpoint call.
	for i := 0; i < checkpointDegradeStreak; i++ {
		if _, _, err := e.Insert([]float64{0.1 * float64(i+1), 0.5}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		fs.InjectFailures(1)
		if err := e.Checkpoint(); err == nil {
			t.Fatalf("checkpoint %d succeeded despite injected failure", i)
		}
		fs.InjectFailures(0)
	}
	ws := e.Stats().WAL
	if !ws.Degraded || ws.DegradedReason != "checkpoint_io" {
		t.Fatalf("WAL stats after checkpoint streak: %+v", ws)
	}
	if _, _, err := e.Insert([]float64{0.9, 0.9}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation after checkpoint degrade: %v", err)
	}
	if err := e.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if _, _, err := e.Insert([]float64{0.8, 0.8}); err != nil {
		t.Fatalf("mutation after Reopen: %v", err)
	}
}

// TestCloseCheckpointRace regresses the Close-vs-background-checkpoint
// race: with an aggressive checkpoint threshold, mutations racing Close
// must never leave a checkpoint goroutine doing filesystem work after
// Close returns. Run with -race.
func TestCloseCheckpointRace(t *testing.T) {
	pts := basePoints("independent", 40, 2, 7)
	for iter := 0; iter < 25; iter++ {
		fs := storage.NewFaultFS()
		seed, err := NewIndex(pts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := durCfg(fs)
		cfg.CheckpointBytes = 1 // every mutation crosses the threshold
		e, err := NewEngine(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := e.Insert([]float64{0.2, 0.4}); err != nil {
					if !errors.Is(err, ErrEngineClosed) {
						t.Errorf("iter %d insert: %v", iter, err)
					}
					return
				}
			}
		}()
		if err := e.Close(); err != nil {
			t.Fatalf("iter %d close: %v", iter, err)
		}
		wg.Wait()
		// Once Close has returned the data directory must be quiescent: no
		// straggler checkpoint goroutine still writing.
		ops := fs.OpCount()
		time.Sleep(2 * time.Millisecond)
		if got := fs.OpCount(); got != ops {
			t.Fatalf("iter %d: filesystem ops after Close: %d -> %d", iter, ops, got)
		}
		// And the directory recovers.
		re, err := NewEngine(nil, durCfg(fs))
		if err != nil {
			dumpFaultDir(t, fs)
			t.Fatalf("iter %d recovery: %v", iter, err)
		}
		re.Close()
	}
}

// TestAdmissionShedsUnderOverload launches far more concurrent writers than
// the admission window allows while WAL I/O is stalled (the chaos model of
// a saturated device). The stall keeps the mutation lock held so the
// writers genuinely pile up at the door: the excess must be shed with
// ErrOverloaded/concurrency_limit, every admitted write must commit, the
// query class must keep answering throughout (classes are isolated), and
// the inflight gauge must return to zero.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	fs := storage.NewFaultFS()
	pts := basePoints("independent", 200, 3, 13)
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := durCfg(fs)
	cfg.Admission = true
	cfg.AdmissionMaxInflight = 4
	cfg.CacheSize = -1 // cache hits bypass the door; force every query through it
	e, err := NewEngine(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Every WAL write and sync now sleeps: the first admitted writer holds
	// e.mu inside the stalled append while the rest arrive, so concurrent
	// pressure at the door is real even on one CPU.
	fs.SetOpDelay(2 * time.Millisecond)

	const writers = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var served, shed int
	var unexpected error
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, _, err := e.Insert([]float64{0.1 + 0.001*float64(g), 0.2, 0.3})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, ErrOverloaded):
				var oe *OverloadError
				if !errors.As(err, &oe) || oe.Reason != admission.ReasonConcurrency {
					unexpected = err
					return
				}
				shed++
			default:
				unexpected = err
			}
		}(g)
	}

	// While the writers are piled up behind the stalled WAL, the query
	// class keeps serving from the immutable snapshot.
	W := [][]float64{{0.2, 0.3, 0.5}, {0.5, 0.3, 0.2}}
	q := []float64{0.3, 0.4, 0.3}
	if _, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: q, K: 5, W: W}); err != nil {
		t.Fatalf("query during mutation overload: %v", err)
	}
	wg.Wait()
	fs.SetOpDelay(0)

	if unexpected != nil {
		t.Fatalf("unexpected error under overload: %v", unexpected)
	}
	if served == 0 || shed == 0 {
		t.Fatalf("overload did not exercise both paths: served %d, shed %d", served, shed)
	}
	// Every admitted write committed; every shed write cost nothing.
	if got := e.Snapshot().Len(); got != len(pts)+served {
		t.Fatalf("snapshot has %d points, want %d base + %d served", got, len(pts), served)
	}
	// The quiesced engine answers bit-identically to the snapshot's direct
	// result: admission sheds load, never correctness.
	resp, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: q, K: 5, W: W})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Snapshot().ReverseTopK(W, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result) != len(want) {
		t.Fatalf("admitted result diverges: %v vs %v", resp.Result, want)
	}
	for i := range want {
		if resp.Result[i] != want[i] {
			t.Fatalf("admitted result diverges: %v vs %v", resp.Result, want)
		}
	}
	st := e.Stats().Admission
	if st == nil {
		t.Fatal("admission stats missing")
	}
	ms := st["mutation"]
	if ms.Inflight != 0 {
		t.Fatalf("inflight leaked: %d", ms.Inflight)
	}
	if ms.ShedConcurrency == 0 || ms.Admitted == 0 {
		t.Fatalf("admission stats inert: %+v", ms)
	}
}

// TestAdmissionDoomedDeadlineAtDoor: once a kind has an observed p50, a
// request of that kind arriving with less remaining budget than that is
// rejected at the door with ErrOverloaded before it waits for a compute
// slot.
func TestAdmissionDoomedDeadlineAtDoor(t *testing.T) {
	pts := basePoints("independent", 100, 3, 17)
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ix, EngineConfig{Admission: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// One successful 10s reverse top-k is a 10s p50 for the kind.
	e.metrics.Observe(int(kindRTopK), 10*time.Second, nil)
	// 1s of budget is doomed against that p50, and long enough that a
	// descheduled caller still reaches the door before it expires.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err = e.ReverseTopKCtx(ctx, ReverseTopKRequest{Q: []float64{0.5, 0.5, 0.5}, K: 3, W: [][]float64{{0.3, 0.3, 0.4}}})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != admission.ReasonDoomed {
		t.Fatalf("doomed request: got %v, want doomed_deadline shed", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("doomed shed carries no retry hint: %+v", oe)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("OverloadError does not match ErrOverloaded")
	}

	// Ample budget passes and answers correctly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := e.ReverseTopKCtx(ctx2, ReverseTopKRequest{Q: []float64{0.5, 0.5, 0.5}, K: 3, W: [][]float64{{0.3, 0.3, 0.4}}}); err != nil {
		t.Fatalf("ample-budget query: %v", err)
	}
}

// TestDoomedDeadlineShedding: a request with 1ms of budget left, against
// its kind's 20ms p50, is shed at the door with the p50 as its retry hint
// and counted once in shed_doomed; an ample budget is admitted, and a
// request without a deadline is never doomed.
func TestDoomedDeadlineShedding(t *testing.T) {
	e, _ := testEngine(t, 100, 3, EngineConfig{Admission: true})
	e.metrics.Observe(int(kindTopK), 20*time.Millisecond, nil)
	p50 := e.metrics.Latency(int(kindTopK)).Counts().Quantile(0.5)
	if p50 < 17500*time.Microsecond || p50 > 22500*time.Microsecond {
		t.Fatalf("p50 = %v after one 20ms success, want within an eighth of it", p50)
	}
	topk := func(ctx context.Context, i int) error {
		_, err := e.TopKCtx(ctx, TopKRequest{W: []float64{0.2 + 0.01*float64(i), 0.3, 0.5 - 0.01*float64(i)}, K: 3})
		return err
	}

	before := e.Stats().Admission["query"]
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	var oe *OverloadError
	if err := topk(ctx, 1); !errors.As(err, &oe) || oe.Reason != admission.ReasonDoomed {
		t.Fatalf("1ms of budget: got %v, want a doomed_deadline shed", err)
	}
	if oe.RetryAfter != p50 {
		t.Fatalf("RetryAfter = %v, want the p50 %v", oe.RetryAfter, p50)
	}
	after := e.Stats().Admission["query"]
	if after.ShedDoomed != before.ShedDoomed+1 || after.Admitted != before.Admitted {
		t.Fatalf("doomed shed moved shed_doomed %d -> %d and admitted %d -> %d, want +1 and +0 (shed at the door)",
			before.ShedDoomed, after.ShedDoomed, before.Admitted, after.Admitted)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := topk(ctx2, 2); err != nil {
		t.Fatalf("ample-budget request: %v", err)
	}
	if err := topk(context.Background(), 3); err != nil {
		t.Fatalf("no-deadline request: %v", err)
	}
}

// TestDoomedDeadlinePerKind: a kind's p50 exists from its first successful
// observation, the doomed check reads the p50 of the request's own kind,
// and the p50 follows a shift in service time.
func TestDoomedDeadlinePerKind(t *testing.T) {
	e, _ := testEngine(t, 100, 3, EngineConfig{Admission: true})
	topk := func(i int) error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_, err := e.TopKCtx(ctx, TopKRequest{W: []float64{0.2 + 0.01*float64(i), 0.3, 0.5 - 0.01*float64(i)}, K: 3})
		return err
	}
	e.metrics.Observe(int(kindWhyNot), 10*time.Second, nil)
	if err := topk(1); err != nil {
		t.Fatalf("a 10s why-not p50 shed a 1s top-k: %v", err)
	}
	// topk now holds that fast success and one 10s one; the upper median
	// of the two is 10s.
	e.metrics.Observe(int(kindTopK), 10*time.Second, nil)
	var oe *OverloadError
	if err := topk(2); !errors.As(err, &oe) || oe.Reason != admission.ReasonDoomed {
		t.Fatalf("1s top-k against a 10s top-k p50: got %v, want a doomed_deadline shed", err)
	}
	for range 512 {
		e.metrics.Observe(int(kindTopK), 20*time.Second, nil)
	}
	for range 512 {
		e.metrics.Observe(int(kindTopK), time.Millisecond, nil)
	}
	if p50 := e.metrics.Latency(int(kindTopK)).Counts().Quantile(0.5); p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v after 512 successes of 20s and then 512 of 1ms, want <= 2ms", p50)
	}
	if err := topk(3); err != nil {
		t.Fatalf("1s top-k once the p50 fell to 1ms: %v", err)
	}
}

// TestAdmissionOffIsInert: with admission disabled (the library default)
// the controller is absent, stats omit the section, and behavior matches
// the pre-admission engine.
func TestAdmissionOffIsInert(t *testing.T) {
	pts := basePoints("independent", 50, 2, 19)
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ix, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Admission() != nil {
		t.Fatal("admission controller present despite Admission=false")
	}
	if st := e.Stats().Admission; st != nil {
		t.Fatalf("admission stats present despite Admission=false: %+v", st)
	}
	if _, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: []float64{0.5, 0.5}, K: 3, W: [][]float64{{0.5, 0.5}}}); err != nil {
		t.Fatalf("query with admission off: %v", err)
	}
}

// TestAdmissionInjectedFaults: the chaos hooks shed and delay real engine
// requests, so the load harness can manufacture overload without load.
func TestAdmissionInjectedFaults(t *testing.T) {
	pts := basePoints("independent", 50, 2, 23)
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ix, EngineConfig{Admission: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Admission().InjectErrors(1)
	_, err = e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: []float64{0.5, 0.5}, K: 3, W: [][]float64{{0.5, 0.5}}})
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != admission.ReasonInjected {
		t.Fatalf("injected fault: got %v", err)
	}
	if _, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: []float64{0.5, 0.5}, K: 3, W: [][]float64{{0.5, 0.5}}}); err != nil {
		t.Fatalf("after budget spent: %v", err)
	}
}
