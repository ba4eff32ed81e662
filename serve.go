package wqrtq

// The concurrent query-serving engine: copy-on-write snapshots let
// Insert/Delete proceed while queries run from any number of goroutines,
// each query computes on its caller's goroutine under one of GOMAXPROCS
// compute slots, and an LRU cache keyed by (snapshot epoch, query) serves
// repeated traffic without touching the index. The cache and the metrics
// live in internal/engine; this file binds them to the Index.
//
// Every query of every kind takes the one path Engine.serve — validate on
// the snapshot → key → cache → doomed check → admit → slot → doomed check
// → cache → answer → deposit → observe — and every mutation the one path
// Engine.mutate; what a kind is (fields, validation, cache key, metrics
// name, executor) is the kinds table of request.go.

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
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
// latency-oriented default. It sizes the cache, durability and admission;
// how many queries compute at once (GOMAXPROCS) and which index structures
// answer a query are not configurable — the skyband, kernel and cell-index
// layers always serve.
type EngineConfig struct {
	// Deprecated: ignored; the engine does not batch requests.
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
	// accepted-request latency toward AdmissionTargetLatency, and the
	// engine's deadline-aware early shedding (Engine.doomed). A rejected request fails with
	// ErrOverloaded (an *OverloadError carrying class, reason and a
	// Retry-After hint) instead of waiting for a compute slot. Off by
	// default, so the pure library behaves exactly as before; `wqrtq
	// serve` enables it (the -admission flag).
	Admission bool
	// AdmissionMaxInflight caps each class's adaptive concurrency window;
	// <= 0 uses 256.
	AdmissionMaxInflight int
	// AdmissionTargetLatency is the accepted-request latency the AIMD
	// controller steers toward; <= 0 uses 50ms.
	AdmissionTargetLatency time.Duration
}

func (c EngineConfig) withDefaults() EngineConfig {
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
	// pool holds one slot per query allowed to compute at once
	// (GOMAXPROCS at NewEngine); a query takes one after admission and
	// gives it back once its answer is deposited.
	pool    *engine.SlotPool
	cache   *engine.LRU[cacheKey, any] // nil when disabled
	metrics *engine.Metrics            // endpoint k is kinds[k], then epInsert and epDelete
	closed  atomic.Bool
	// adm is the admission controller (overload.go, internal/admission);
	// nil when cfg.Admission is off.
	adm *admission.Controller
	// dur is the durability state (durability.go); nil without DataDir.
	dur       *durable
	closeOnce sync.Once
	closeErr  error
	// keepEpoch is the deposit guard for AddIf: allocated once so a
	// deposit does not build a closure per result.
	keepEpoch func(cacheKey) bool
	// Per-kind RTA totals (the kinds with a kindSpec.rta: rtopk and
	// whynot), accumulated when a computation actually runs — cache hits
	// share the producing run's statistics without re-counting them.
	rta [numKinds]rtaTotals
}

// The mutation endpoints of Engine.metrics, after the query kinds.
const (
	epInsert = int(numKinds) + iota
	epDelete
)

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
	// Runs counts the evaluations actually executed (cache hits do not
	// add runs).
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
	names := []string{epInsert: "insert", epDelete: "delete"}
	for k := range kinds {
		names[k] = kinds[k].name
	}
	e := &Engine{cfg: cfg, metrics: engine.NewMetrics(names...), dur: dur, pool: engine.NewSlotPool(runtime.GOMAXPROCS(0))}
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
	return e, nil
}

// Admission returns the engine's admission controller, nil when admission
// is disabled. Exposed for the chaos hooks (InjectLatency, InjectErrors)
// the load harness and degraded-mode tests drive.
func (e *Engine) Admission() *admission.Controller { return e.adm }

// Close stops the engine: computations in flight finish, later calls —
// mutations and cache hits included — fail with ErrEngineClosed, and the
// background band and grid builds of the index's clone family stop (Close
// waits out the running ones, so none outlives it; clones of the index
// taken before NewEngine belong to the family too). With a data directory,
// Close then settles durability: the WAL is flushed and fsynced regardless
// of policy (every mutation acknowledged before Close is durable once
// Close returns), and an in-flight background checkpoint is either
// completed or cleanly abandoned (its temp file is removed at the next
// startup; the sealed WAL still covers every mutation). Close is
// idempotent and every call returns the first close's error.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		// Barrier: the pool's Close waits out every computation holding a
		// slot; a request that takes one from here on fails.
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
		// Every snapshot shares its family's builds: stop them, and wait
		// out the ones running, before the engine counts as closed.
		barrier.bg.close()
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
	epoch, err := e.mutate(epInsert, func(cur *Index) (*Index, func() error, error) {
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
	epoch, err := e.mutate(epDelete, func(cur *Index) (*Index, func() error, error) {
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
// checkpoint, observed under endpoint ep. apply turns the current snapshot into
// the next one — on a Clone, so a failure leaves the engine state unchanged
// — and returns the WAL append that logs the change (called only with
// durability on); a nil next means there is nothing to publish, because
// apply rejected the mutation (err) or found it a no-op. The returned epoch
// is the published snapshot's, the current one's when nothing was
// published, or 0 when the mutation was turned away before the lock.
func (e *Engine) mutate(ep int, apply func(cur *Index) (next *Index, logTo func() error, err error)) (epoch uint64, err error) {
	start := time.Now()
	var ticket *admission.Ticket
	defer func() {
		d := time.Since(start)
		ticket.Done(d)
		e.metrics.Observe(ep, d, err)
	}()
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
	if ticket, err = e.admit(context.Background(), admission.Mutation, ep); err != nil {
		return 0, err
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
// race past it: Engine.serve deposits through AddIf with an
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

// TopKCtx serves a TopKRequest, cached, with cooperative cancellation: a
// request whose context ends while it waits for a compute slot returns
// without index work, and one canceled mid-evaluation unwinds within one
// check interval. The response's Elapsed includes the slot wait, and its
// Epoch identifies the snapshot that produced the result.
func (e *Engine) TopKCtx(ctx context.Context, req TopKRequest) (TopKResponse, error) {
	return serveTopK(ctx, e, req)
}

// RankCtx serves a RankRequest with cooperative cancellation.
func (e *Engine) RankCtx(ctx context.Context, req RankRequest) (RankResponse, error) {
	return serveRank(ctx, e, req)
}

// ReverseTopKCtx serves a ReverseTopKRequest with cooperative cancellation.
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
// cached under the snapshot epoch, and cancelable.
func (e *Engine) ModifyQueryCtx(ctx context.Context, req ModifyQueryRequest) (ModifyQueryResponse, error) {
	return serveModifyQuery(ctx, e, req)
}

// ModifyPreferencesCtx serves a ModifyPreferencesRequest (MWK) through the
// engine: cached under the snapshot epoch, and cancelable.
func (e *Engine) ModifyPreferencesCtx(ctx context.Context, req ModifyPreferencesRequest) (ModifyPreferencesResponse, error) {
	return serveModifyPreferences(ctx, e, req)
}

// ModifyAllCtx serves a ModifyAllRequest (MQWK) through the engine:
// cached under the snapshot epoch, and cancelable.
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
	// Per-endpoint counters and latency quantiles (the eight query kinds,
	// insert, delete).
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

// serve is the Engine request path, the one place a request of any kind
// opens and closes, all on the caller's goroutine: closed → validate on the
// current snapshot → key → cache fast path → doomed check → admission door
// → compute slot → doomed check again → cache again → answer on the
// validated snapshot → deposit. Every exit, cache hits included, is timed
// once by the first defer, which closes the admission ticket and observes
// the request; the slot is released exactly once. The slot wait ends with ctx. The second cache
// look finds the answer of an identical request that held a slot first,
// since a run deposits before it gives its slot back.
func (e *Engine) serve(ctx context.Context, a query) (val any, epoch uint64, elapsed time.Duration, err error) {
	start := time.Now()
	var ticket *admission.Ticket
	defer func() {
		elapsed = time.Since(start)
		ticket.Done(elapsed)
		e.metrics.Observe(int(a.kind), elapsed, err)
	}()
	if e.closed.Load() {
		return nil, 0, 0, ErrEngineClosed
	}
	snap := e.Snapshot()
	if err = snap.validate(&a); err != nil {
		return nil, 0, 0, err
	}
	if err = ctx.Err(); err != nil {
		return nil, 0, 0, err
	}
	key := cacheKey{epoch: snap.Epoch(), key: argKey(&a)}
	if e.cache != nil {
		if v, ok := e.cacheGet(key.epoch, key.key); ok {
			return v, key.epoch, 0, nil
		}
	}
	// The door: deadline-aware shedding and the AIMD concurrency window —
	// both before the request waits for a slot.
	if err = e.doomed(ctx, a.kind); err != nil {
		return nil, 0, 0, err
	}
	if ticket, err = e.admit(ctx, admission.Query, int(a.kind)); err != nil {
		return nil, 0, 0, err
	}
	if err = e.pool.Acquire(ctx); err != nil {
		if errors.Is(err, engine.ErrPoolClosed) {
			err = ErrEngineClosed
		}
		return nil, 0, 0, err
	}
	defer e.pool.Release()
	// The slot wait may have eaten the budget the door let through.
	if err = e.doomed(ctx, a.kind); err != nil {
		return nil, 0, 0, err
	}
	if e.cache != nil {
		if v, ok := e.cache.Get(key); ok {
			return v, key.epoch, 0, nil
		}
	}
	if val, err = snap.answer(ctx, &a); err != nil {
		return nil, 0, 0, err
	}
	if rta := kinds[a.kind].rta; rta != nil {
		e.rta[a.kind].add(rta(val))
	}
	if e.cache != nil {
		// Epoch-guarded deposit: if a mutation published a newer snapshot
		// while this answer was computing, the sweep has already run and
		// depositing would strand a dead-epoch entry; AddIf checks under
		// the cache lock and drops it instead.
		e.cache.AddIf(key, val, e.keepEpoch)
	}
	return val, key.epoch, 0, nil
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
