// Package admission implements the serving engine's overload-control
// front door: an AIMD adaptive concurrency limiter per class and
// deadline-aware early shedding.
//
// Every request passes Admit before it is allowed to wait for a compute
// slot or cost an index traversal. A request is shed — with a machine-readable reason
// and a Retry-After hint — when:
//
//   - its context's remaining budget is below the current p50 service
//     time for its class ("doomed": it would almost certainly expire
//     while it waits, so rejecting it now is strictly cheaper for everyone);
//   - its class's adaptive concurrency limit is reached ("concurrency":
//     the AIMD controller has concluded that more in-flight work pushes
//     latency past the target).
//
// Queries and mutations are separate classes with independent limits and
// latency statistics, so a query storm cannot starve writes
// and vice versa.
//
// The AIMD loop is the classic TCP-shaped controller: every completed
// request whose latency is at or under the target nudges the limit up
// additively (+1 per limit's worth of successes); a completion over the
// target cuts the limit multiplicatively (×0.9), at most once per
// decreaseInterval so one slow burst does not collapse the window. The limit
// floats between 1 and MaxInflight.
//
// InjectLatency and InjectErrors are chaos hooks: they let the load
// harness and the degraded-mode tests stall or fail admissions on demand,
// proving the shedding and retry surfaces without needing a real overload.
package admission

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wqrtq/internal/feq"
)

// decreaseInterval bounds how often a class's limit can be cut
// multiplicatively.
const decreaseInterval = 100 * time.Millisecond

// Class selects the admission class of a request.
type Class int

const (
	// Query is the read class: topk, rank, rtopk, explain, whynot and the
	// refinement endpoints.
	Query Class = iota
	// Mutation is the write class: insert and delete.
	Mutation
	numClasses
)

// String returns the class name used in stats and shed reasons.
func (c Class) String() string {
	if c == Mutation {
		return "mutation"
	}
	return "query"
}

// Shed reasons, surfaced in OverloadError and /v1/stats.
const (
	// ReasonDoomed: the request's remaining context budget is below the
	// class's observed p50 service time.
	ReasonDoomed = "doomed_deadline"
	// ReasonConcurrency: the class's adaptive in-flight limit is reached.
	ReasonConcurrency = "concurrency_limit"
	// ReasonInjected: a chaos hook (InjectErrors) forced the rejection.
	ReasonInjected = "fault_injected"
)

// Config tunes a Controller. The zero value gives a 256-request
// concurrency ceiling and a 50ms latency target per class.
type Config struct {
	// MaxInflight is the ceiling of each class's adaptive concurrency
	// limit; <= 0 uses 256. The AIMD controller floats the effective limit
	// between 1 and this value.
	MaxInflight int
	// TargetLatency is the per-request latency the AIMD controller steers
	// toward; <= 0 uses 50ms.
	TargetLatency time.Duration
}

// Shed describes one rejected admission.
type Shed struct {
	Class  Class
	Reason string
	// RetryAfter is the controller's hint for when a retry has a real
	// chance: the observed p50 (zero when no data exists yet), or the
	// target for a concurrency shed before any data.
	RetryAfter time.Duration
}

// Ticket is one admitted request; Done must be called exactly once with
// the request's total latency when it completes.
type Ticket struct {
	lim *limiter
}

// Controller is the admission front door. All methods are safe for
// concurrent use.
type Controller struct {
	limiters [numClasses]*limiter

	// Chaos hooks (see InjectLatency, InjectErrors).
	injDelayNs atomic.Int64
	injErrs    atomic.Int64
}

// NewController builds a controller from cfg.
func NewController(cfg Config) *Controller {
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = 256
	}
	target := cfg.TargetLatency
	if target <= 0 {
		target = 50 * time.Millisecond
	}
	c := &Controller{}
	for cl := Class(0); cl < numClasses; cl++ {
		c.limiters[cl] = newLimiter(maxInflight, target)
	}
	return c
}

// InjectLatency makes every subsequent Admit stall d before deciding —
// the admission-layer latency fault for chaos testing. d <= 0 clears it.
func (c *Controller) InjectLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.injDelayNs.Store(int64(d))
}

// InjectErrors makes the next n Admit calls shed with ReasonInjected.
// n <= 0 clears any remaining budget.
func (c *Controller) InjectErrors(n int) {
	if n <= 0 {
		n = 0
	}
	c.injErrs.Store(int64(n))
}

// Admit decides whether a request of the given class may proceed. A nil
// Shed means admitted; the caller must then call Ticket.Done exactly once.
func (c *Controller) Admit(ctx context.Context, class Class) (*Ticket, *Shed) {
	if d := c.injDelayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	if c.injErrs.Load() > 0 && c.injErrs.Add(-1) >= 0 {
		l := c.limiters[class]
		l.shedInjected.Add(1)
		return nil, &Shed{Class: class, Reason: ReasonInjected, RetryAfter: l.lat.p50()}
	}
	return c.limiters[class].admit(ctx, class)
}

// Observe feeds a completed request's latency into a class's statistics
// without an admission ticket — how the engine keeps p50 current while
// admission is disabled or bypassed (cache hits).
func (c *Controller) Observe(class Class, d time.Duration) {
	c.limiters[class].lat.observe(d)
}

// P50 returns the class's current median service-time estimate (zero
// until enough completions have been observed).
func (c *Controller) P50(class Class) time.Duration {
	return c.limiters[class].lat.p50()
}

// ClassStats is one class's admission counters, surfaced in /v1/stats.
type ClassStats struct {
	// Admitted counts requests that passed the door; Shed* count the
	// rejections by reason. ShedRate is always zero: no rate limit
	// exists, and the field stays only for readers of the stats.
	Admitted        int64 `json:"admitted"`
	ShedDoomed      int64 `json:"shed_doomed"`
	ShedRate        int64 `json:"shed_rate"`
	ShedConcurrency int64 `json:"shed_concurrency"`
	ShedInjected    int64 `json:"shed_injected"`
	// Inflight is the current in-flight count; Limit the AIMD window it is
	// admitted against; Decreases how many times the window was cut.
	Inflight  int64   `json:"inflight"`
	Limit     float64 `json:"limit"`
	Decreases int64   `json:"decreases"`
	// P50Micros and P99Micros are the class's observed service-time
	// quantiles in microseconds (0 until enough data).
	P50Micros int64 `json:"p50_micros"`
	P99Micros int64 `json:"p99_micros"`
}

// Stats returns both classes' counters keyed by class name.
func (c *Controller) Stats() map[string]ClassStats {
	out := make(map[string]ClassStats, numClasses)
	for cl := Class(0); cl < numClasses; cl++ {
		out[cl.String()] = c.limiters[cl].stats()
	}
	return out
}

// limiter is one class's AIMD window + latency tracker.
type limiter struct {
	maxLimit float64
	target   time.Duration

	limitBits atomic.Uint64 // float64 bits of the AIMD window
	inflight  atomic.Int64
	lastCut   atomic.Int64 // unixnano of the last multiplicative decrease

	admitted        atomic.Int64
	shedDoomed      atomic.Int64
	shedConcurrency atomic.Int64
	shedInjected    atomic.Int64
	cuts            atomic.Int64

	lat latencyTracker
}

func newLimiter(maxInflight int, target time.Duration) *limiter {
	l := &limiter{maxLimit: float64(maxInflight), target: target}
	// The window starts fully open: the controller learns the real
	// capacity by observing latency, shrinking only on evidence.
	l.limitBits.Store(math.Float64bits(l.maxLimit))
	return l
}

func (l *limiter) limit() float64 { return math.Float64frombits(l.limitBits.Load()) }

// admit runs the shed ladder: doomed deadline, then AIMD window.
func (l *limiter) admit(ctx context.Context, class Class) (*Ticket, *Shed) {
	if dl, ok := ctx.Deadline(); ok {
		if p50 := l.lat.p50(); p50 > 0 && time.Until(dl) < p50 {
			l.shedDoomed.Add(1)
			return nil, &Shed{Class: class, Reason: ReasonDoomed, RetryAfter: p50}
		}
	}
	limit := l.limit()
	if v := l.inflight.Add(1); float64(v) > limit {
		l.inflight.Add(-1)
		l.shedConcurrency.Add(1)
		retry := l.lat.p50()
		if retry == 0 {
			retry = l.target
		}
		return nil, &Shed{Class: class, Reason: ReasonConcurrency, RetryAfter: retry}
	}
	l.admitted.Add(1)
	return &Ticket{lim: l}, nil
}

// Done releases the ticket's in-flight slot and drives the AIMD window
// with the request's observed latency.
func (t *Ticket) Done(d time.Duration) {
	l := t.lim
	l.inflight.Add(-1)
	l.lat.observe(d)
	if d <= l.target {
		// Additive increase: +1 per window's worth of under-target
		// completions, CAS so concurrent completions never lose updates.
		for {
			old := l.limitBits.Load()
			cur := math.Float64frombits(old)
			next := math.Min(l.maxLimit, cur+1/math.Max(cur, 1))
			if feq.Eq(next, cur) || l.limitBits.CompareAndSwap(old, math.Float64bits(next)) {
				return
			}
		}
	}
	// Multiplicative decrease, at most once per decrease interval.
	now := time.Now().UnixNano()
	last := l.lastCut.Load()
	if now-last < int64(decreaseInterval) || !l.lastCut.CompareAndSwap(last, now) {
		return
	}
	for {
		old := l.limitBits.Load()
		cur := math.Float64frombits(old)
		next := math.Max(1, cur*0.9)
		if feq.Eq(next, cur) || l.limitBits.CompareAndSwap(old, math.Float64bits(next)) {
			l.cuts.Add(1)
			return
		}
	}
}

func (l *limiter) stats() ClassStats {
	p50, p99 := l.lat.quantiles()
	return ClassStats{
		Admitted:        l.admitted.Load(),
		ShedDoomed:      l.shedDoomed.Load(),
		ShedConcurrency: l.shedConcurrency.Load(),
		ShedInjected:    l.shedInjected.Load(),
		Inflight:        l.inflight.Load(),
		Limit:           l.limit(),
		Decreases:       l.cuts.Load(),
		P50Micros:       p50.Microseconds(),
		P99Micros:       p99.Microseconds(),
	}
}

// latencyTracker keeps a ring of recent service times and a cached
// p50/p99, recomputed every recomputeEvery observations so the hot
// admission path only ever loads two atomics.
type latencyTracker struct {
	mu    sync.Mutex
	ring  [trackerRing]int64
	n     int // total observations
	p50Ns atomic.Int64
	p99Ns atomic.Int64
}

const (
	trackerRing    = 256
	recomputeEvery = 32
)

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.ring[t.n%trackerRing] = int64(d)
	t.n++
	if t.n%recomputeEvery == 0 {
		filled := t.n
		if filled > trackerRing {
			filled = trackerRing
		}
		buf := make([]int64, filled)
		copy(buf, t.ring[:filled])
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		t.p50Ns.Store(buf[filled/2])
		t.p99Ns.Store(buf[(filled*99)/100])
	}
	t.mu.Unlock()
}

func (t *latencyTracker) p50() time.Duration {
	return time.Duration(t.p50Ns.Load())
}

func (t *latencyTracker) quantiles() (p50, p99 time.Duration) {
	return time.Duration(t.p50Ns.Load()), time.Duration(t.p99Ns.Load())
}
