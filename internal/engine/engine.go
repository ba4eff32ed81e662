// Package engine provides the concurrency substrate of the query-serving
// engine (wqrtq.Engine): a bounded worker pool that drains queued requests
// into batches, a generic LRU result cache, and per-endpoint latency
// counters.
//
// The pieces are deliberately generic and free of query semantics — the
// root package assembles them around an Index and runs each distinct
// request of a batch once. Keeping the substrate here lets it be
// unit-tested in isolation and reused by future serving surfaces.
package engine
