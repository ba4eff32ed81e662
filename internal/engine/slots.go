package engine

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrPoolClosed is what Acquire returns once Close has begun.
var ErrPoolClosed = errors.New("engine: slot pool closed")

// SlotPool bounds how many computations run at once: a fixed set of slots
// that callers take and give back on their own goroutines. The pool owns no
// goroutine, and callers blocked on a full pool are served in arrival
// order.
type SlotPool struct {
	slots  chan struct{}
	closed atomic.Bool
}

// NewSlotPool returns a pool of n slots.
func NewSlotPool(n int) *SlotPool {
	p := &SlotPool{slots: make(chan struct{}, n)}
	for range n {
		p.slots <- struct{}{}
	}
	return p
}

// Acquire takes a slot, waiting while every slot is held; the wait ends
// with ctx. A caller whose ctx ended, or that gets its slot after Close
// began, gives the slot straight back and gets ErrPoolClosed or ctx's
// error, so stale work never runs. On a nil error the caller holds a slot
// and must Release it.
func (p *SlotPool) Acquire(ctx context.Context) error {
	select {
	case <-p.slots:
	case <-ctx.Done():
		return ctx.Err()
	}
	err := ctx.Err()
	if p.closed.Load() {
		err = ErrPoolClosed
	}
	if err != nil {
		p.slots <- struct{}{}
	}
	return err
}

// Release gives back a slot taken by Acquire.
func (p *SlotPool) Release() { p.slots <- struct{}{} }

// Close makes every later Acquire fail and waits until no slot is held,
// so the computations in flight have finished when it returns. Close is
// idempotent.
func (p *SlotPool) Close() {
	p.closed.Store(true)
	// Holding every slot means nothing holds one; they go back at once,
	// and a caller that takes one from here on sees closed.
	for range cap(p.slots) {
		<-p.slots
	}
	for range cap(p.slots) {
		p.slots <- struct{}{}
	}
}
