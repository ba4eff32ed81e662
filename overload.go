package wqrtq

// Overload and degradation surfaces of the serving engine (see also
// internal/admission and durability.go):
//
//   - ErrOverloaded / OverloadError: the admission front door or the
//     doomed-deadline check (at the door and after the compute-slot wait)
//     rejected the request before it cost index work. The error carries the class, a
//     machine-readable reason and a Retry-After hint, which the HTTP
//     layer maps to 503 + Retry-After.
//   - ErrDegraded / DegradedError: the durability layer hit persistent
//     I/O failures and the engine is serving read-only. Queries keep
//     answering from the immutable snapshot; mutations fail with this
//     error until Reopen succeeds.
//   - Health: the live/ready/degraded summary behind /v1/health,
//     suitable for load-balancer checks.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wqrtq/internal/admission"
)

// ErrOverloaded is the sentinel matched by errors.Is for every admission
// rejection. The concrete error is always an *OverloadError.
var ErrOverloaded = errors.New("wqrtq: engine overloaded")

// ErrDegraded is the sentinel matched by errors.Is when the engine is in
// read-only degraded mode. The concrete error is always a *DegradedError.
var ErrDegraded = errors.New("wqrtq: engine degraded (read-only)")

// OverloadError reports a request shed by admission control. It matches
// ErrOverloaded under errors.Is.
type OverloadError struct {
	// Class is "query" or "mutation".
	Class string
	// Reason is machine-readable: doomed_deadline, concurrency_limit or
	// fault_injected (the Reason constants of internal/admission).
	Reason string
	// RetryAfter hints when a retry has a real chance (zero = no data).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("wqrtq: %s shed (%s), retry after %v", e.Class, e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// DegradedError reports a mutation refused because the engine is serving
// read-only. It matches ErrDegraded under errors.Is and unwraps to the
// I/O failure that caused the transition.
type DegradedError struct {
	// Reason is machine-readable: wal_append or checkpoint_io.
	Reason string
	// Cause is the underlying I/O error that exhausted the retry budget.
	Cause error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("wqrtq: engine degraded (read-only): %s: %v", e.Reason, e.Cause)
}

// Is makes errors.Is(err, ErrDegraded) match.
func (e *DegradedError) Is(target error) bool { return target == ErrDegraded }

// Unwrap exposes the causal I/O error.
func (e *DegradedError) Unwrap() error { return e.Cause }

// Health is the engine's liveness summary, served at /v1/health.
type Health struct {
	// Live: the process is up and the engine object exists (false only
	// after Close).
	Live bool `json:"live"`
	// Ready: queries are servable. A degraded engine stays ready — that
	// is the point of read-only mode.
	Ready bool `json:"ready"`
	// Degraded: mutations are refused; Reason says why.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"reason,omitempty"`
}

// Health reports the engine's current serving state.
func (e *Engine) Health() Health {
	h := Health{Live: !e.closed.Load()}
	h.Ready = h.Live
	if e.dur != nil && e.dur.degraded.Load() {
		h.Degraded = true
		h.Reason = e.dur.degradedReason()
	}
	return h
}

// admit maps a request of metrics endpoint ep through the admission
// controller, translating a shed into the public error type with ep's p50,
// once it has one, as Retry-After. A nil ticket with nil error means
// admission is disabled.
func (e *Engine) admit(ctx context.Context, class admission.Class, ep int) (*admission.Ticket, error) {
	if e.adm == nil {
		return nil, nil
	}
	t, shed := e.adm.Admit(ctx, class)
	if shed != nil {
		if p50 := e.metrics.Latency(ep).P50(); p50 > 0 {
			shed.RetryAfter = p50
		}
		return nil, &OverloadError{Class: class.String(), Reason: shed.Reason, RetryAfter: shed.RetryAfter}
	}
	return t, nil
}

// doomed is the one doomed-deadline check, run at the door and again after
// the slot wait. With admission on, it sheds a query whose deadline is
// closer than its kind's median recent successful latency: it would most
// likely expire before it answers, so refusing it now is cheaper for all.
func (e *Engine) doomed(ctx context.Context, k kind) error {
	dl, ok := ctx.Deadline()
	if e.adm == nil || !ok {
		return nil
	}
	if p50 := e.metrics.Latency(int(k)).P50(); p50 > 0 && time.Until(dl) < p50 {
		e.adm.ShedDoomed(admission.Query)
		return &OverloadError{Class: admission.Query.String(), Reason: admission.ReasonDoomed, RetryAfter: p50}
	}
	return nil
}
