package wqrtq

// The concurrent query-serving engine: copy-on-write snapshots let
// Insert/Delete proceed while queries run from any number of goroutines, a
// bounded worker pool drains already-queued queries into batches (identical
// requests in a batch run once), and an LRU cache keyed by (snapshot epoch,
// query) serves repeated traffic without touching the index. The
// concurrency substrate (pool, cache, metrics) lives in internal/engine;
// this file binds it to the Index.
//
// Every query of every kind takes the one path Engine.serve — validate on
// the snapshot → key → cache → admit → submit → wait → observe — and every
// mutation the one path Engine.mutate; what a kind is (fields, validation,
// cache key, metrics name, executor) is the kinds table of request.go.

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wqrtq/internal/admission"
	"wqrtq/internal/engine"
	"wqrtq/internal/storage"
	"wqrtq/internal/vec"
)

// ErrEngineClosed is returned by every Engine method called after Close.
var ErrEngineClosed = errors.New("wqrtq: engine is closed")

// EngineConfig tunes the serving engine. The zero value is a sensible
// latency-oriented default. It sizes the pool, the cache, durability and
// admission; which index structures answer a query is not configurable —
// the skyband, kernel and cell-index layers always serve.
type EngineConfig struct {
	// Workers is the number of query worker goroutines; <= 0 uses
	// GOMAXPROCS.
	Workers int
	// MaxBatch caps how many concurrent requests one worker coalesces into
	// a batch; <= 0 uses 32.
	MaxBatch int
	// Deprecated: ignored; a worker batches only requests already queued
	// and never waits for more.
	BatchLinger time.Duration
	// CacheSize is the capacity of the (epoch, query)-keyed LRU result
	// cache. 0 uses 4096; negative disables caching.
	CacheSize int
	// DataDir enables durability (durability.go): mutations are logged to
	// a write-ahead log before they are published, a background
	// checkpointer serializes snapshots, and NewEngine recovers the
	// persisted dataset — which then takes precedence over the index
	// argument. Empty (the default) keeps the engine pure in-memory,
	// byte-for-byte identical to its behavior before durability existed.
	DataDir string
	// Fsync selects the WAL durability policy: "always" (default; an
	// acknowledged mutation survives any crash), "interval" (background
	// sync every FsyncInterval; a crash may lose the last interval), or
	// "off" (sync only at rotation and Close).
	Fsync string
	// FsyncInterval is the period of the background sync under
	// Fsync="interval"; <= 0 uses 50ms.
	FsyncInterval time.Duration
	// CheckpointBytes triggers a background snapshot checkpoint (which
	// truncates the WAL) once the current segment exceeds it. 0 uses
	// DefaultCheckpointBytes; negative disables automatic checkpoints
	// (Engine.Checkpoint remains available).
	CheckpointBytes int64
	// FS overrides the filesystem the durability layer uses; nil (the
	// default) is the real one. Tests inject storage.FaultFS here to
	// simulate crashes, torn writes and bit rot.
	FS storage.FS
	// Admission enables the overload-control front door
	// (internal/admission): a per-class AIMD concurrency limiter steering
	// accepted-request latency toward AdmissionTargetLatency, and
	// deadline-aware early shedding. A
	// rejected request fails with ErrOverloaded (an *OverloadError
	// carrying class, reason and a Retry-After hint) instead of queueing;
	// with admission on the engine never parks a caller behind a full
	// worker queue. Off by default, so the pure library behaves exactly
	// as before; `wqrtq serve` enables it (the -admission flag).
	Admission bool
	// AdmissionMaxInflight caps each class's adaptive concurrency window;
	// <= 0 uses 256.
	AdmissionMaxInflight int
	// AdmissionTargetLatency is the accepted-request latency the AIMD
	// controller steers toward; <= 0 uses 50ms.
	AdmissionTargetLatency time.Duration
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	return c
}

// Engine serves queries and mutations over an Index with snapshot
// isolation. Queries always observe one consistent point set: the engine
// publishes an immutable snapshot, and every mutation clones the current
// snapshot (copy-on-write, so the clone is cheap), applies itself, and
// publishes the result. Mutations are serialized; queries never block them
// and are never blocked by them.
//
// Results returned by the engine (and by the snapshots it hands out) are
// shared — with the cache and with other callers — and must be treated as
// read-only.
type Engine struct {
	cfg     EngineConfig
	mu      sync.Mutex // serializes mutations
	current atomic.Pointer[Index]
	pool    *engine.Pool[*engineReq]
	cache   *engine.LRU[cacheKey, any] // nil when disabled
	metrics *engine.Metrics
	closed  atomic.Bool
	// adm is the admission controller (overload.go, internal/admission);
	// nil when cfg.Admission is off.
	adm *admission.Controller
	// dur is the durability state (durability.go); nil without DataDir.
	dur       *durable
	closeOnce sync.Once
	closeErr  error
	// keepEpoch is the deposit guard for AddIf: allocated once so the
	// batch executor's deposit does not build a closure per result.
	keepEpoch func(cacheKey) bool
	// Per-kind RTA totals (the kinds with a kindSpec.rta: rtopk and
	// whynot), accumulated when a computation actually runs — cache hits
	// and deduplicated co-waiters share the producing run's statistics
	// without re-counting them.
	rta [numKinds]rtaTotals
}

// rtaTotals accumulates reverse top-k evaluation statistics for one endpoint.
type rtaTotals struct {
	runs       atomic.Int64
	evaluated  atomic.Int64
	pruned     atomic.Int64
	candidates atomic.Int64
}

func (t *rtaTotals) add(s RTAStats) {
	t.runs.Add(1)
	t.evaluated.Add(int64(s.Evaluated))
	t.pruned.Add(int64(s.Pruned))
	t.candidates.Add(int64(s.CandidateSetSize))
}

// RTATotals is the cumulative reverse top-k work of one endpoint, as
// surfaced in EngineStats and /v1/stats.
type RTATotals struct {
	// Runs counts the evaluations actually executed (cache hits and
	// deduplicated co-waiters do not add runs).
	Runs int64 `json:"runs"`
	// Evaluated and Pruned total the per-run vector counts (see RTAStats).
	Evaluated int64 `json:"evaluated"`
	Pruned    int64 `json:"pruned"`
	// CandidatePoints totals the per-run candidate-set sizes; divided by
	// Runs it is the average number of points each membership count ran
	// against — the production-visible measure of the skyband win.
	CandidatePoints int64 `json:"candidate_points"`
}

func (t *rtaTotals) snapshot() RTATotals {
	return RTATotals{
		Runs:            t.runs.Load(),
		Evaluated:       t.evaluated.Load(),
		Pruned:          t.pruned.Load(),
		CandidatePoints: t.candidates.Load(),
	}
}

// NewEngine wraps ix in a serving engine. The engine takes ownership of the
// index: the caller must not mutate ix afterwards (queries on it remain
// fine).
//
// With cfg.DataDir set, durable state wins: when the directory already
// holds a dataset, ix serves only as a fallback seed and the recovered
// index is published instead; a fresh directory persists ix as the
// initial snapshot before serving starts.
func NewEngine(ix *Index, cfg EngineConfig) (*Engine, error) {
	// A nil index is allowed only when a data directory can supply the
	// dataset; openDurable rejects the combination of nil seed and empty
	// directory.
	if ix == nil && cfg.DataDir == "" {
		return nil, errors.New("wqrtq: NewEngine requires an index")
	}
	cfg = cfg.withDefaults()
	var dur *durable
	if cfg.DataDir != "" {
		rix, d, err := openDurable(ix, cfg)
		if err != nil {
			return nil, err
		}
		ix, dur = rix, d
	}
	e := &Engine{cfg: cfg, metrics: engine.NewMetrics(), dur: dur}
	e.current.Store(ix)
	e.keepEpoch = func(k cacheKey) bool { return k.epoch == e.current.Load().Epoch() }
	if cfg.CacheSize > 0 {
		e.cache = engine.NewLRU[cacheKey, any](cfg.CacheSize)
	}
	if cfg.Admission {
		e.adm = admission.NewController(admission.Config{
			MaxInflight:   cfg.AdmissionMaxInflight,
			TargetLatency: cfg.AdmissionTargetLatency,
		})
	}
	e.pool = engine.NewPool(cfg.Workers, cfg.MaxBatch, e.dropReq, e.exec)
	return e, nil
}

// Admission returns the engine's admission controller, nil when admission
// is disabled. Exposed for the chaos hooks (InjectLatency, InjectErrors)
// the load harness and degraded-mode tests drive.
func (e *Engine) Admission() *admission.Controller { return e.adm }

// dropReq sheds a queued request that is no longer worth running: one
// whose context ended while it waited (the waiter has already unblocked
// via its own ctx select and is answered with the context's error), and —
// with admission on — one whose remaining deadline budget has fallen
// below the query class's observed p50 service time. The second case is
// queued-but-doomed work the admission door could not catch, because the
// backlog grew after it was admitted; shedding it at dequeue is the last
// moment it can still cost nothing.
func (e *Engine) dropReq(r *engineReq) bool {
	if r.ctx == nil {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.done <- engineResp{err: err}
		return true
	}
	if e.adm != nil {
		if dl, ok := r.ctx.Deadline(); ok {
			if p50 := e.adm.P50(admission.Query); p50 > 0 && time.Until(dl) < p50 {
				r.done <- engineResp{err: &OverloadError{Class: "query", Reason: admission.ReasonDoomed, RetryAfter: p50}}
				return true
			}
		}
	}
	return false
}

// Close stops the engine: in-flight and already-queued requests finish,
// later calls — mutations included — fail with ErrEngineClosed. With a
// data directory, Close then settles durability: the WAL is flushed and
// fsynced regardless of policy (every mutation acknowledged before Close
// is durable once Close returns), and an in-flight background checkpoint
// is either completed or cleanly abandoned (its temp file is removed at
// the next startup; the sealed WAL still covers every mutation). Close is
// idempotent and every call returns the first close's error.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		e.pool.Close()
		// Barrier: a mutation that passed its closed check before the
		// store above may still be inside e.mu appending to the WAL or
		// triggering a checkpoint. Taking the lock here waits it out, and
		// every later mutation re-checks closed under e.mu — so once the
		// barrier passes, nothing can start new durability work and
		// dur.close() releases the data directory race-free.
		e.mu.Lock()
		barrier := e.current.Load()
		e.mu.Unlock()
		_ = barrier
		if e.dur != nil {
			e.closeErr = e.dur.close()
		}
	})
	return e.closeErr
}

// Snapshot returns the currently published immutable snapshot. It is safe
// to query from any goroutine for as long as desired — later mutations
// publish new snapshots and never touch this one.
func (e *Engine) Snapshot() *Index { return e.current.Load() }

// Epoch returns the epoch of the current snapshot.
func (e *Engine) Epoch() uint64 { return e.current.Load().Epoch() }

// Insert adds a point through a copy-on-write snapshot swap and returns its
// id and the epoch of the snapshot that includes it.
func (e *Engine) Insert(p []float64) (int, uint64, error) {
	var id int
	epoch, err := e.mutate("insert", func(cur *Index) (*Index, func() error, error) {
		if err := cur.checkPoint(p); err != nil {
			return nil, nil, err
		}
		next := cur.Clone()
		var err error
		if id, err = next.Insert(p); err != nil {
			return nil, nil, err
		}
		return next, func() error { return e.dur.appendInsert(uint64(id), vec.Point(p)) }, nil
	})
	if err != nil {
		return 0, epoch, err
	}
	return id, epoch, nil
}

// Delete removes the point with the given id through a copy-on-write
// snapshot swap. It reports whether the id was live, and the epoch of the
// snapshot without it.
func (e *Engine) Delete(id int) (bool, uint64, error) {
	deleted := false
	epoch, err := e.mutate("delete", func(cur *Index) (*Index, func() error, error) {
		if id < 0 || id >= cur.NumIDs() {
			_, err := cur.Delete(id) // delegate for the canonical error
			return nil, nil, err
		}
		if cur.Point(id) == nil {
			return nil, nil, nil // already deleted
		}
		next := cur.Clone()
		ok, err := next.Delete(id)
		if err != nil || !ok {
			return nil, nil, err
		}
		deleted = true
		return next, func() error { return e.dur.appendDelete(uint64(id)) }, nil
	})
	return deleted && err == nil, epoch, err
}

// mutate is the one write path: closed → degraded → admit → lock → closed
// again → apply → WAL append (+fsync, with retry) → publish → sweep →
// checkpoint, observed under name. apply turns the current snapshot into
// the next one — on a Clone, so a failure leaves the engine state unchanged
// — and returns the WAL append that logs the change (called only with
// durability on); a nil next means there is nothing to publish, because
// apply rejected the mutation (err) or found it a no-op. The returned epoch
// is the published snapshot's, the current one's when nothing was
// published, or 0 when the mutation was turned away before the lock.
func (e *Engine) mutate(name string, apply func(cur *Index) (next *Index, logTo func() error, err error)) (epoch uint64, err error) {
	start := time.Now()
	defer func() { e.metrics.Observe(name, time.Since(start), err != nil) }()
	if e.closed.Load() {
		return 0, ErrEngineClosed
	}
	// Fail fast outside the lock: a degraded (read-only) engine refuses
	// mutations before they cost a clone; admission meters the mutation
	// class before it costs a lock acquisition. Both are re-verified on
	// the authoritative path (appendRetry, the closed re-check below).
	if e.dur != nil {
		if derr := e.dur.degradedErr(); derr != nil {
			return 0, derr
		}
	}
	ticket, err := e.admit(context.Background(), admission.Mutation)
	if err != nil {
		return 0, err
	}
	if ticket != nil {
		admitted := time.Now()
		defer func() { ticket.Done(time.Since(admitted)) }()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		// Close sets closed and then takes e.mu as a barrier; a mutation
		// that raced past the first check must not append after the WAL
		// has been sealed.
		return 0, ErrEngineClosed
	}
	cur := e.current.Load()
	next, logTo, err := apply(cur)
	if err != nil || next == nil {
		return cur.Epoch(), err
	}
	// Write-ahead: the mutation is logged (and, under fsync=always, made
	// durable) before the snapshot containing it becomes observable. On
	// failure the clone is discarded and the engine state is unchanged.
	if e.dur != nil {
		if err := e.dur.appendRetry(cur, logTo); err != nil {
			return cur.Epoch(), err
		}
	}
	e.current.Store(next)
	e.sweepCache(next.Epoch())
	if e.dur != nil {
		e.maybeCheckpoint()
	}
	return next.Epoch(), nil
}

// sweepCache evicts every cache entry of a superseded epoch as soon as a
// mutation publishes a new one. Without the sweep, dead-epoch entries — no
// longer reachable by any lookup, since lookups always key on the current
// epoch — would linger until capacity pressure pushed them out, silently
// halving the effective cache under mutation-heavy load. Deposits cannot
// race past it: batch execution deposits through AddIf with an
// epoch-is-still-current guard evaluated under the cache lock, so a result
// computed against a superseded snapshot is dropped instead of stranding a
// dead-epoch entry until the next mutation.
func (e *Engine) sweepCache(current uint64) {
	if e.cache == nil {
		return
	}
	e.cache.EvictIf(func(k cacheKey) bool {
		return k.epoch != current
	})
}

// TopKCtx serves a TopKRequest, batched and cached, with cooperative
// cancellation: a request whose context ends while queued is shed without
// index work, and one canceled mid-evaluation unwinds within one check
// interval. The response's Elapsed includes queueing and batching time, and
// its Epoch identifies the snapshot that produced the result.
func (e *Engine) TopKCtx(ctx context.Context, req TopKRequest) (TopKResponse, error) {
	return serveTopK(ctx, e, req)
}

// RankCtx serves a RankRequest with cooperative cancellation.
func (e *Engine) RankCtx(ctx context.Context, req RankRequest) (RankResponse, error) {
	return serveRank(ctx, e, req)
}

// ReverseTopKCtx serves a ReverseTopKRequest with cooperative cancellation.
// Identical concurrent calls that land in one batch run once. That shared
// run is aborted only when every waiter's context is done: one canceled
// waiter unblocks immediately with its context's error while the run keeps
// going for the rest.
func (e *Engine) ReverseTopKCtx(ctx context.Context, req ReverseTopKRequest) (ReverseTopKResponse, error) {
	return serveReverseTopK(ctx, e, req)
}

// ExplainCtx serves an ExplainRequest with cooperative cancellation.
func (e *Engine) ExplainCtx(ctx context.Context, req ExplainRequest) (ExplainResponse, error) {
	return serveExplain(ctx, e, req)
}

// WhyNotCtx serves a WhyNotRequest with cooperative cancellation threaded
// through the whole refinement pipeline; deadline-bounding heavy why-not
// refinements is the primary use of the context API.
func (e *Engine) WhyNotCtx(ctx context.Context, req WhyNotRequest) (WhyNotResponse, error) {
	return serveWhyNot(ctx, e, req)
}

// ModifyQueryCtx serves a ModifyQueryRequest (MQP) through the engine:
// batched, cached under the snapshot epoch, and cancelable.
func (e *Engine) ModifyQueryCtx(ctx context.Context, req ModifyQueryRequest) (ModifyQueryResponse, error) {
	return serveModifyQuery(ctx, e, req)
}

// ModifyPreferencesCtx serves a ModifyPreferencesRequest (MWK) through the
// engine: batched, cached under the snapshot epoch, and cancelable.
func (e *Engine) ModifyPreferencesCtx(ctx context.Context, req ModifyPreferencesRequest) (ModifyPreferencesResponse, error) {
	return serveModifyPreferences(ctx, e, req)
}

// ModifyAllCtx serves a ModifyAllRequest (MQWK) through the engine:
// batched, cached under the snapshot epoch, and cancelable.
func (e *Engine) ModifyAllCtx(ctx context.Context, req ModifyAllRequest) (ModifyAllResponse, error) {
	return serveModifyAll(ctx, e, req)
}

// EngineStats is a point-in-time view of the engine's serving counters.
type EngineStats struct {
	// Epoch of the current snapshot.
	Epoch uint64 `json:"epoch"`
	// Live points and allocated ids in the current snapshot.
	Live   int `json:"live"`
	NumIDs int `json:"num_ids"`
	// Per-endpoint latency counters (topk, rank, rtopk, explain, whynot,
	// modify_query, modify_preferences, modify_all, insert, delete).
	Endpoints map[string]engine.CounterSnapshot `json:"endpoints"`
	// Canceled totals, across endpoints, the requests that failed because
	// the caller's context was canceled or its deadline expired (each
	// endpoint's own count is in Endpoints).
	Canceled int64 `json:"canceled"`
	// Result cache counters; hits/misses count lookups. CacheEvictions
	// counts entries removed by capacity pressure and by the dead-epoch
	// sweep that runs when a mutation publishes a new snapshot.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheLen       int   `json:"cache_len"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Skyband describes the k-skyband sub-index: the bands cached on the
	// current snapshot and the cumulative build/hit/fallback/carry
	// counters, which cover the grids the bands hold.
	Skyband SkybandStats `json:"skyband"`
	// Kernel describes the blocked scoring kernel: the cumulative
	// blocked-sweep counters (blocks, weights ranked, candidate points
	// swept).
	Kernel KernelStats `json:"kernel"`
	// CellIndex describes the materialized reverse-top-k cell index: the
	// grids the current snapshot's bands hold and the cumulative
	// build/lookup/fallback counters.
	CellIndex CellIndexStats `json:"cellindex"`
	// RTA aggregates reverse top-k pruning work per endpoint ("rtopk",
	// "whynot"), so the skyband candidate-set win is observable in
	// production, not just in benchmarks.
	RTA map[string]RTATotals `json:"rta"`
	// WAL reports the durability layer's counters (durability.go);
	// Enabled is false for a pure in-memory engine.
	WAL WALStats `json:"wal"`
	// Admission reports the overload-control counters per class ("query",
	// "mutation"); nil when admission is disabled.
	Admission map[string]admission.ClassStats `json:"admission,omitempty"`
}

// Stats returns the engine's serving counters.
func (e *Engine) Stats() EngineStats {
	snap := e.Snapshot()
	s := EngineStats{
		Epoch:     snap.Epoch(),
		Live:      snap.Len(),
		NumIDs:    snap.NumIDs(),
		Endpoints: e.metrics.Snapshot(),
		Skyband:   snap.SkybandStats(),
		Kernel:    snap.KernelStats(),
		CellIndex: snap.CellIndexStats(),
		RTA:       make(map[string]RTATotals),
	}
	for k := range kinds {
		if kinds[k].rta != nil {
			s.RTA[kinds[k].name] = e.rta[k].snapshot()
		}
	}
	//wqrtq:unordered summing int counters; result is order-free
	for _, c := range s.Endpoints {
		s.Canceled += c.Canceled
	}
	if e.cache != nil {
		s.CacheHits, s.CacheMisses = e.cache.Stats()
		s.CacheLen = e.cache.Len()
		s.CacheEvictions = e.cache.Evictions()
	}
	if e.dur != nil {
		s.WAL = e.dur.stats()
	}
	if e.adm != nil {
		s.Admission = e.adm.Stats()
	}
	return s
}

// engineReq is one queued query. key is the exact binary encoding of the
// arguments (without the epoch, which is prefixed at execution time). ctx is
// the caller's context: the pool sheds the request if it ends while queued,
// and a running computation is canceled only when the contexts of all its
// waiters are done.
type engineReq struct {
	query
	ctx  context.Context
	key  string
	done chan engineResp
}

type engineResp struct {
	val   any
	epoch uint64
	err   error
}

// isCtxErr reports whether err is a context cancellation or deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// serve is the Engine request path, the one place a request of any kind
// opens and closes: validate on the current snapshot → key → cache fast
// path → admission door → submit to the worker pool → wait → observe.
// Every exit is observed exactly once (the first defer) and the admission
// ticket is released exactly once (the second). The caller unblocks as soon
// as ctx ends, even if the request is still queued (the pool then sheds it
// without work). With admission on, a request that cannot get a queue slot
// immediately is shed with ErrOverloaded instead of parking the caller
// behind a backlog.
func (e *Engine) serve(ctx context.Context, a query) (val any, epoch uint64, elapsed time.Duration, err error) {
	start := time.Now()
	name := kinds[a.kind].name
	defer func() {
		elapsed = time.Since(start)
		e.metrics.Observe(name, elapsed, err != nil)
		if err != nil && isCtxErr(err) {
			e.metrics.ObserveCanceled(name)
		}
	}()
	snap := e.Snapshot()
	if err = snap.validate(&a); err != nil {
		return nil, 0, 0, err
	}
	if err = ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	r := &engineReq{query: a, ctx: ctx, key: argKey(&a)}
	if e.cache != nil {
		if v, ok := e.cacheGet(snap.Epoch(), r.key); ok {
			if e.adm != nil {
				// Cache hits bypass admission but still shape the class's
				// service-time estimate: under cache-heavy traffic the
				// median service time really is a cache hit.
				e.adm.Observe(admission.Query, time.Since(start))
			}
			return v, snap.Epoch(), 0, nil
		}
	}
	// The door: deadline-aware shedding and the AIMD concurrency window —
	// both before the request costs a queue slot.
	ticket, err := e.admit(ctx, admission.Query)
	if err != nil {
		return nil, 0, 0, err
	}
	r.done = make(chan engineResp, 1)
	if ticket != nil {
		defer func() { ticket.Done(time.Since(start)) }()
		queued, open := e.pool.TrySubmit(r)
		if !open {
			return nil, 0, 0, ErrEngineClosed
		}
		if !queued {
			return nil, 0, 0, &OverloadError{Class: "query", Reason: ReasonQueueFull, RetryAfter: e.adm.P50(admission.Query)}
		}
	} else {
		ok, err := e.pool.SubmitCtx(ctx, r)
		if err != nil {
			// The queue was full when the context ended; no work was queued.
			return nil, 0, 0, err
		}
		if !ok {
			return nil, 0, 0, ErrEngineClosed
		}
	}
	select {
	case resp := <-r.done:
		return resp.val, resp.epoch, 0, resp.err
	case <-ctx.Done():
		// The queued request is shed by the pool's drop check or answered
		// into the buffered done channel; nothing leaks.
		return nil, 0, 0, ctx.Err()
	}
}

// compCtx returns the context a deduplicated computation runs
// under: canceled only once every waiter's context is done, so one canceled
// waiter never aborts co-waiters sharing the work. The returned stop must be
// called when the computation finishes to release the watcher goroutine.
func compCtx(reqs []*engineReq) (context.Context, context.CancelFunc) {
	if len(reqs) == 1 {
		// Sole waiter: its own context is exactly the right computation
		// context, with no watcher goroutine. This is the hot path — most
		// batch entries are not deduplicated.
		if ctx := reqs[0].ctx; ctx != nil {
			return ctx, func() {}
		}
		return context.Background(), func() {}
	}
	for _, r := range reqs {
		if r.ctx == nil || r.ctx.Done() == nil {
			// At least one waiter can never cancel: the computation always
			// runs to completion and the watcher is unnecessary.
			return context.Background(), func() {}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for _, r := range reqs {
			select {
			case <-r.ctx.Done():
			case <-ctx.Done():
				return
			}
		}
		cancel()
	}()
	return ctx, cancel
}

// exec serves one batch: it loads the snapshot once (the batch's
// linearization point), answers cache hits, sheds requests whose context
// already ended, runs each distinct request once through run, and fans
// results back out to identical requests. A deduplicated computation runs
// under a context that cancels only when every waiter's context is done.
func (e *Engine) exec(batch []*engineReq) {
	snap := e.current.Load()
	epoch := snap.Epoch()

	waiters := make(map[cacheKey][]*engineReq, len(batch))
	var unique []*engineReq
	for _, r := range batch {
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				r.done <- engineResp{epoch: epoch, err: err}
				continue
			}
		}
		full := cacheKey{epoch: epoch, key: r.key}
		if e.cache != nil {
			if v, ok := e.cache.Get(full); ok {
				r.done <- engineResp{val: v, epoch: epoch}
				continue
			}
		}
		if _, dup := waiters[full]; dup {
			waiters[full] = append(waiters[full], r)
			continue
		}
		waiters[full] = []*engineReq{r}
		unique = append(unique, r)
	}

	for _, r := range unique {
		full := cacheKey{epoch: epoch, key: r.key}
		cctx, stop := compCtx(waiters[full])
		val, err := e.run(cctx, snap, r)
		stop()
		if err == nil && e.cache != nil {
			// Epoch-guarded deposit: if a mutation published a newer
			// snapshot while this result was computing, the sweep has
			// already run and depositing would strand a dead-epoch entry;
			// AddIf checks under the cache lock and drops it instead.
			e.cache.AddIf(full, val, e.keepEpoch)
		}
		for _, w := range waiters[full] {
			werr := err
			if err != nil && isCtxErr(err) && w.ctx != nil {
				// A shared computation only aborts once every waiter is
				// canceled; report each waiter's own context error.
				if own := w.ctx.Err(); own != nil {
					werr = own
				}
			}
			w.done <- engineResp{val: val, epoch: epoch, err: werr}
		}
	}
}

// run executes one validated request against the batch's snapshot — the
// same Index.answer the Index path calls — and adds an executed RTA stage
// to its kind's totals.
func (e *Engine) run(ctx context.Context, snap *Index, r *engineReq) (any, error) {
	val, err := snap.answer(ctx, &r.query)
	if rta := kinds[r.kind].rta; rta != nil && err == nil {
		e.rta[r.kind].add(rta(val))
	}
	return val, err
}

// argKey encodes a validated query's kind and arguments exactly (no
// hashing, so no collisions): kind name, k, then length-prefixed float
// vectors, then the resolved Options of the kinds that carry them.
func argKey(a *query) string {
	spec := &kinds[a.kind]
	n := 16 + 8*len(a.w) + 8*len(a.q)
	for _, w := range a.ws {
		n += 8 + 8*len(w)
	}
	b := make([]byte, 0, n+len(spec.name)+64)
	b = append(b, spec.name...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(a.k)))
	b = appendVec(b, a.w)
	b = appendVec(b, a.q)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(a.ws)))
	for _, w := range a.ws {
		b = appendVec(b, w)
	}
	if spec.opts {
		b = appendOptions(b, a)
	}
	return string(b)
}

func appendVec(b []byte, v []float64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// appendOptions encodes what a refinement's answer depends on: the
// resolved penalty model, sample sizes and seed (so Options{} and its
// spelled-out defaults share a key).
func appendOptions(b []byte, a *query) []byte {
	for _, f := range []float64{a.pm.Alpha, a.pm.Beta, a.pm.Gamma, a.pm.Lambda} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	flags := uint64(0)
	if a.pm.NormalizeWeights {
		flags |= 1
	}
	b = binary.LittleEndian.AppendUint64(b, flags)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(a.s)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(a.qs)))
	b = binary.LittleEndian.AppendUint64(b, uint64(a.seed))
	return b
}

// cacheKey scopes one cached result to the snapshot epoch that produced
// it. It replaces the old epoch-prefixed string key, whose 8-byte-prefix
// concatenation allocated a fresh string on every lookup — including the
// hottest path of all, a cache hit; a two-field struct key hashes without
// allocating and lets sweepCache compare epochs instead of string prefixes.
type cacheKey struct {
	epoch uint64
	key   string
}

// cacheGet is the allocation-free cache hit path. Callers must have
// checked e.cache != nil.
//
//wqrtq:contract inline noalloc noescape(key)
func (e *Engine) cacheGet(epoch uint64, key string) (any, bool) {
	return e.cache.Get(cacheKey{epoch: epoch, key: key})
}
