package engine

import (
	"context"
	"runtime"
	"sync"
)

// Pool is a bounded worker pool that drains submitted requests in batches.
// A worker blocks for the first request of a batch, then takes whatever is
// already queued, up to MaxBatch; it never waits for more. Batching lets
// the run callback amortize one snapshot load and deduplicate identical
// requests across concurrent callers without adding latency.
type Pool[R any] struct {
	ch       chan R
	run      func([]R)
	drop     func(R) bool
	maxBatch int

	mu      sync.RWMutex // guards closed vs sender registration
	closed  bool
	senders sync.WaitGroup // in-flight SubmitCtx sends; Close waits before close(ch)
	wg      sync.WaitGroup
}

// NewPool starts workers goroutines serving batches of at most maxBatch
// requests through run. workers <= 0 defaults to GOMAXPROCS; maxBatch <= 0
// defaults to 1 (no batching).
//
// drop, when non-nil, is consulted as queued requests are gathered into a
// batch: returning true consumes the request without running it (the
// callback must answer the request's waiter itself, e.g. with its context's
// error). This is how stale work — requests whose deadline passed while
// queued — is shed before it costs an index traversal.
//
// run and drop are called from worker goroutines; run must not retain the
// batch slice.
func NewPool[R any](workers, maxBatch int, drop func(R) bool, run func([]R)) *Pool[R] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxBatch <= 0 {
		maxBatch = 1
	}
	p := &Pool[R]{
		ch:       make(chan R, 4*workers*maxBatch),
		run:      run,
		drop:     drop,
		maxBatch: maxBatch,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// SubmitCtx enqueues a request, blocking while the queue is full, but
// gives up if ctx ends while it waits, so a deadline-bounded caller is
// never pinned behind a backlog. It returns (false, ctx.Err()) on cancellation and (false, nil) once the
// pool is closed.
func (p *Pool[R]) SubmitCtx(ctx context.Context, r R) (bool, error) {
	// Register as a sender under the read lock, then send with no lock
	// held: a queue-full send may block for a while, and blocking inside
	// the critical section would pin Close (and violate the lockhold
	// invariant — no channel ops under the engine mutexes). Close sets
	// closed under the write lock, so every sender registered here is
	// either observed by senders.Wait or saw closed and backed out; the
	// channel is closed only after all registered sends complete.
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return false, nil
	}
	p.senders.Add(1)
	p.mu.RUnlock()
	defer p.senders.Done()

	done := ctx.Done()
	if done == nil {
		p.ch <- r
		return true, nil
	}
	select {
	case p.ch <- r:
		return true, nil
	case <-done:
		return false, ctx.Err()
	}
}

// TrySubmit enqueues a request only if a queue slot is immediately free.
// It returns (true, true) on success, (false, true) when the queue is full
// — the admission-control signal: the caller sheds instead of parking a
// goroutine behind a backlog it may never clear — and (_, false) once the
// pool is closed.
func (p *Pool[R]) TrySubmit(r R) (queued, open bool) {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return false, false
	}
	p.senders.Add(1)
	p.mu.RUnlock()
	defer p.senders.Done()

	select {
	case p.ch <- r:
		return true, true
	default:
		return false, true
	}
}

// Close stops accepting requests, waits for the queue to drain and for all
// in-flight batches to finish. It is idempotent.
func (p *Pool[R]) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if !already {
		// New submitters now see closed; wait out the registered sends,
		// then close the drained-to channel. Workers are still consuming,
		// so blocked senders finish rather than deadlock.
		p.senders.Wait()
		close(p.ch)
	}
	p.wg.Wait()
}

func (p *Pool[R]) worker() {
	defer p.wg.Done()
	batch := make([]R, 0, p.maxBatch)
	for {
		r, ok := <-p.ch
		if !ok {
			return
		}
		if p.drop != nil && p.drop(r) {
			continue // consumed without work; block for the next request
		}
		batch = append(batch[:0], r)
	drain:
		for len(batch) < p.maxBatch {
			select {
			case r2, ok2 := <-p.ch:
				if !ok2 {
					break drain
				}
				if p.drop != nil && p.drop(r2) {
					continue
				}
				batch = append(batch, r2)
			default:
				break drain
			}
		}
		p.run(batch)
	}
}
