package engine

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Metrics is the per-endpoint request table. Its endpoints are fixed when
// it is built, so recording a request takes no lock.
type Metrics struct {
	names []string
	eps   []endpoint
}

type endpoint struct {
	count    atomic.Int64
	errors   atomic.Int64
	canceled atomic.Int64
	totalNs  atomic.Int64
	ok       Histogram // latencies of the successful exits
}

// CounterSnapshot is a point-in-time copy of one endpoint's counters.
type CounterSnapshot struct {
	// Count and Total cover every exit. Errors counts the failed requests,
	// Canceled the subset that failed because the caller's context was
	// canceled or its deadline expired.
	Count    int64         `json:"count"`
	Errors   int64         `json:"errors"`
	Canceled int64         `json:"canceled"`
	Total    time.Duration `json:"total_ns"`
	// P50, P95 and P99 cover the last 256–512 successful exits; 0 before.
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// NewMetrics returns a table whose endpoint i is names[i].
func NewMetrics(names ...string) *Metrics {
	return &Metrics{names: names, eps: make([]endpoint, len(names))}
}

// Observe records one request of endpoint ep that took d and returned err.
func (m *Metrics) Observe(ep int, d time.Duration, err error) {
	e := &m.eps[ep]
	e.count.Add(1)
	e.totalNs.Add(d.Nanoseconds())
	switch {
	case err == nil:
		e.ok.Observe(d)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.canceled.Add(1)
		fallthrough
	default:
		e.errors.Add(1)
	}
}

// Latency returns endpoint ep's histogram of successful latencies.
func (m *Metrics) Latency(ep int) *Histogram { return &m.eps[ep].ok }

// Snapshot copies every endpoint's counters, keyed by name.
func (m *Metrics) Snapshot() map[string]CounterSnapshot {
	out := make(map[string]CounterSnapshot, len(m.eps))
	for i := range m.eps {
		e := &m.eps[i]
		lat := e.ok.Counts()
		out[m.names[i]] = CounterSnapshot{
			Count:    e.count.Load(),
			Errors:   e.errors.Load(),
			Canceled: e.canceled.Load(),
			Total:    time.Duration(e.totalNs.Load()),
			P50:      lat.Quantile(0.50),
			P95:      lat.Quantile(0.95),
			P99:      lat.Quantile(0.99),
		}
	}
	return out
}
