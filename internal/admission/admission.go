// Package admission implements the serving engine's overload-control
// front door: an AIMD adaptive concurrency limiter per class.
//
// Every request passes Admit before it is allowed to wait for a compute
// slot or cost an index traversal. It is shed, with a machine-readable
// reason and a Retry-After hint, when its class's adaptive concurrency
// limit is reached: the AIMD controller has concluded that more in-flight
// work pushes latency past the target. Queries and mutations are separate
// classes with independent limits, so a query storm cannot starve writes
// and vice versa. The doomed-deadline check is the engine's, which reads
// its per-kind latency histograms; the controller only counts its sheds.
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
	"sync/atomic"
	"time"
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
	// observed p50 service time of its kind (the engine decides this).
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
	Reason string
	// RetryAfter is the controller's hint for when a retry has a real
	// chance: the target for a concurrency shed, zero for an injected one.
	// The engine replaces it with the observed p50 once it has one.
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
	for cl := range c.limiters {
		l := &limiter{maxLimit: float64(maxInflight), target: target}
		// The window starts fully open: the controller learns the real
		// capacity by observing latency, shrinking only on evidence.
		l.limitBits.Store(math.Float64bits(l.maxLimit))
		c.limiters[cl] = l
	}
	return c
}

// InjectLatency makes every subsequent Admit stall d before deciding —
// the admission-layer latency fault for chaos testing. d <= 0 clears it.
func (c *Controller) InjectLatency(d time.Duration) {
	c.injDelayNs.Store(int64(max(d, 0)))
}

// InjectErrors makes the next n Admit calls shed with ReasonInjected.
// n <= 0 clears any remaining budget.
func (c *Controller) InjectErrors(n int) {
	c.injErrs.Store(int64(max(n, 0)))
}

// Admit decides whether a request of the given class may proceed. A nil
// Shed means admitted; the caller must then call Ticket.Done exactly once.
// ctx is not read: deadlines are the engine's to judge.
func (c *Controller) Admit(_ context.Context, class Class) (*Ticket, *Shed) {
	if d := c.injDelayNs.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	l := c.limiters[class]
	if c.injErrs.Load() > 0 && c.injErrs.Add(-1) >= 0 {
		l.shedInjected.Add(1)
		return nil, &Shed{Reason: ReasonInjected}
	}
	if v := l.inflight.Add(1); float64(v) > l.limit() {
		l.inflight.Add(-1)
		l.shedConcurrency.Add(1)
		return nil, &Shed{Reason: ReasonConcurrency, RetryAfter: l.target}
	}
	l.admitted.Add(1)
	return &Ticket{lim: l}, nil
}

// ShedDoomed counts one request of class the engine shed as ReasonDoomed.
func (c *Controller) ShedDoomed(class Class) {
	c.limiters[class].shedDoomed.Add(1)
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
}

// Stats returns both classes' counters keyed by class name.
func (c *Controller) Stats() map[string]ClassStats {
	out := make(map[string]ClassStats, numClasses)
	for cl, l := range c.limiters {
		out[Class(cl).String()] = ClassStats{
			Admitted:        l.admitted.Load(),
			ShedDoomed:      l.shedDoomed.Load(),
			ShedConcurrency: l.shedConcurrency.Load(),
			ShedInjected:    l.shedInjected.Load(),
			Inflight:        l.inflight.Load(),
			Limit:           l.limit(),
			Decreases:       l.cuts.Load(),
		}
	}
	return out
}

// limiter is one class's AIMD window and shed counters.
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
}

func (l *limiter) limit() float64 { return math.Float64frombits(l.limitBits.Load()) }

// Done releases the ticket's in-flight slot and drives the AIMD window
// with the request's latency d. Done on a nil Ticket does nothing.
func (t *Ticket) Done(d time.Duration) {
	if t == nil {
		return
	}
	l := t.lim
	l.inflight.Add(-1)
	if d <= l.target {
		// Additive increase: +1 per window's worth of under-target
		// completions.
		l.update(func(cur float64) float64 { return math.Min(l.maxLimit, cur+1/math.Max(cur, 1)) })
		return
	}
	// Multiplicative decrease, at most once per decrease interval.
	now := time.Now().UnixNano()
	last := l.lastCut.Load()
	if now-last < int64(decreaseInterval) || !l.lastCut.CompareAndSwap(last, now) {
		return
	}
	l.update(func(cur float64) float64 { return math.Max(1, cur*0.9) })
	l.cuts.Add(1)
}

// update sets the AIMD window to f of itself by CAS, so concurrent
// completions never lose updates.
func (l *limiter) update(f func(float64) float64) {
	for {
		old := l.limitBits.Load()
		cur := math.Float64frombits(old)
		next := f(cur)
		if next == cur || l.limitBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}
