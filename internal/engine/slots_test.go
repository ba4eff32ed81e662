package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolProcessesEverything(t *testing.T) {
	// Eight callers run 1000 computations through two slots: every one
	// runs, and never more than two at once.
	p := NewSlotPool(2)
	var sum, running, maxRunning atomic.Int64
	const n = 1000
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range n / 8 {
				if err := p.Acquire(context.Background()); err != nil {
					t.Errorf("Acquire before Close: %v", err)
					return
				}
				r := running.Add(1)
				for {
					cur := maxRunning.Load()
					if r <= cur || maxRunning.CompareAndSwap(cur, r) {
						break
					}
				}
				sum.Add(1)
				running.Add(-1)
				p.Release()
			}
		}()
	}
	wg.Wait()
	p.Close()
	if sum.Load() != n {
		t.Fatalf("ran %d computations, want %d", sum.Load(), n)
	}
	if m := maxRunning.Load(); m > 2 {
		t.Fatalf("%d computations ran at once through 2 slots", m)
	}
}

func TestPoolCloseRejectsAndDrains(t *testing.T) {
	// Close waits for the computation holding the slot, and every Acquire
	// after it fails without keeping a slot.
	p := NewSlotPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var finished atomic.Bool
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Close returned while a computation held its slot")
	case <-time.After(20 * time.Millisecond):
	}
	finished.Store(true)
	p.Release()
	<-done
	if !finished.Load() {
		t.Fatal("Close returned before the computation in flight finished")
	}
	if err := p.Acquire(context.Background()); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Acquire after Close: err = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent, and returns at once: the rejected Acquire gave its slot back
}

func TestPoolSubmitCtxGivesUpOnFullQueue(t *testing.T) {
	// With every slot held, a deadline-bounded Acquire gives up with the
	// context error instead of pinning its caller, and takes no slot.
	p := NewSlotPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire on a full pool: err = %v, want context.DeadlineExceeded", err)
	}
	p.Release()
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire after the slot came back: %v", err)
	}
	p.Release()
	p.Close()
}

func TestPoolDropShedsStaleRequests(t *testing.T) {
	// Requests whose context ends while they wait must be shed without
	// running; fresh requests interleaved with them must all run.
	p := NewSlotPool(1)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var served, poisoned atomic.Int64
	var wg sync.WaitGroup
	cancels := make([]context.CancelFunc, 0, 10)
	for i := range 20 {
		ctx, cancel := context.WithCancel(context.Background())
		stale := i%2 == 0
		if stale {
			cancels = append(cancels, cancel)
		} else {
			defer cancel()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Acquire(ctx)
			switch {
			case stale && err == nil:
				poisoned.Add(1) // a stale request reached its computation
				p.Release()
			case stale && !errors.Is(err, context.Canceled):
				t.Errorf("stale request: err = %v, want context.Canceled", err)
			case !stale && err != nil:
				t.Errorf("fresh request: %v", err)
			case !stale:
				served.Add(1)
				p.Release()
			}
		}()
	}
	for _, cancel := range cancels {
		cancel()
	}
	p.Release() // the held slot goes back only after every stale context ended
	wg.Wait()
	if got := poisoned.Load(); got != 0 {
		t.Fatalf("%d stale requests ran", got)
	}
	if got := served.Load(); got != 10 {
		t.Fatalf("served %d fresh requests, want 10", got)
	}

	// A free slot does not save a stale request: whichever the wait picks,
	// the slot stays in the pool.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range 100 {
		if err := p.Acquire(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("stale request with a free slot: err = %v, want context.Canceled", err)
		}
	}
	p.Close() // returns only if no stale request kept the slot
}
