// Package engine provides the serving substrate of the query engine
// (wqrtq.Engine): a generic LRU result cache, per-endpoint latency
// histograms, and the slot pool that bounds how many queries compute at once.
//
// The pieces are deliberately generic and free of query semantics — the
// root package assembles them around an Index. Keeping the substrate here
// lets it be unit-tested in isolation and reused by future serving
// surfaces.
package engine
