package engine

import (
	"errors"
	"os"
	"sync"
	"time"
)

// The audit's plants in the root package's durable store (DESIGN.md §11):
// each blocks under the store's mutex, and the test suite passes with
// every one of them.

type writer struct{ n int }

func (w *writer) append() error {
	w.n++
	return errors.New("poisoned")
}

type durable struct {
	mu       sync.Mutex
	w        *writer
	stop     chan struct{}
	degraded bool
}

// appendRetry retries a failed append once, after a backoff sleep.
func (d *durable) appendRetry() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.w.append()
	if err != nil {
		time.Sleep(time.Millisecond) // want `time.Sleep while holding d.mu in appendRetry`
		err = d.w.append()
	}
	return err
}

// enterDegraded logs the transition to stderr.
func (d *durable) enterDegraded(reason string) {
	d.mu.Lock()
	if !d.degraded {
		d.degraded = true
		os.Stderr.WriteString("read-only: " + reason + "\n") // want `os.WriteString call \(I/O\) while holding d.mu in enterDegraded`
	}
	d.mu.Unlock()
}

// syncLoop takes the lock before it waits for the next tick.
func (d *durable) syncLoop(tick <-chan time.Time) {
	for {
		d.mu.Lock()
		select { // want `select while holding d.mu in syncLoop`
		case <-d.stop:
			d.mu.Unlock()
			return
		case <-tick:
			w := d.w
			d.mu.Unlock()
			_ = w.append()
		}
	}
}
