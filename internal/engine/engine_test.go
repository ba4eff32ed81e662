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
	var sum atomic.Int64
	var batches atomic.Int64
	var maxBatch atomic.Int64
	p := NewPool(2, 8, nil, func(b []int) {
		batches.Add(1)
		for {
			cur := maxBatch.Load()
			if int64(len(b)) <= cur || maxBatch.CompareAndSwap(cur, int64(len(b))) {
				break
			}
		}
		for _, v := range b {
			sum.Add(int64(v))
		}
	})
	const n = 1000
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				if !submit(p, 1) {
					t.Error("Submit returned false before Close")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	p.Close()
	if sum.Load() != n {
		t.Fatalf("processed %d requests, want %d", sum.Load(), n)
	}
	if maxBatch.Load() > 8 {
		t.Fatalf("batch of %d exceeds MaxBatch 8", maxBatch.Load())
	}
}

func TestPoolDrainsQueuedIntoBatches(t *testing.T) {
	// Hold the one worker on a blocking first request, queue 32 more
	// behind it, then release: the worker drains the queue without waiting,
	// so the 32 run in MaxBatch-sized batches — 1 + 2 batches in all.
	started := make(chan struct{})
	release := make(chan struct{})
	var batches atomic.Int64
	var served atomic.Int64
	p := NewPool(1, 16, nil, func(b []int) {
		batches.Add(1)
		for _, v := range b {
			if v == 0 {
				started <- struct{}{}
				<-release
			}
			served.Add(int64(v))
		}
	})
	submit(p, 0)
	<-started
	for i := 0; i < 32; i++ {
		submit(p, 1)
	}
	close(release)
	p.Close()
	if served.Load() != 32 {
		t.Fatalf("served %d queued requests, want 32", served.Load())
	}
	if b := batches.Load(); b > 3 {
		t.Fatalf("1 held + 32 queued requests ran in %d batches; at MaxBatch 16 the drain takes ≤3", b)
	}
}

func TestPoolCloseRejectsAndDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var served atomic.Int64
	p := NewPool(1, 1, nil, func(b []int) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		served.Add(int64(len(b)))
	})
	submit(p, 1)
	<-started
	submit(p, 2) // queued behind the in-flight batch
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	close(release)
	<-done
	if served.Load() != 2 {
		t.Fatalf("Close dropped queued work: served %d, want 2", served.Load())
	}
	if submit(p, 3) {
		t.Fatal("Submit accepted a request after Close")
	}
	p.Close() // idempotent
}

func TestPoolSubmitCtxGivesUpOnFullQueue(t *testing.T) {
	// One worker, no batching: channel capacity is 4. Block the worker and
	// fill the queue; a deadline-bounded submit must then give up with the
	// context error instead of pinning the caller.
	release := make(chan struct{})
	p := NewPool(1, 1, nil, func(b []int) { <-release })
	defer func() {
		close(release)
		p.Close()
	}()
	deadline := time.After(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		ok, err := p.SubmitCtx(ctx, 1)
		cancel()
		if !ok {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("SubmitCtx error = %v, want context.DeadlineExceeded", err)
			}
			return // queue filled and the bounded submit gave up: pass
		}
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		default:
		}
	}
}

func TestPoolDropShedsStaleRequests(t *testing.T) {
	// Requests flagged stale must be consumed by drop without reaching run;
	// fresh requests interleaved with them must all be served.
	type req struct {
		stale bool
		v     int
	}
	var dropped, served atomic.Int64
	p := NewPool(1, 4, func(r req) bool {
		if r.stale {
			dropped.Add(1)
			return true
		}
		return false
	}, func(b []req) {
		for _, r := range b {
			if r.stale {
				served.Add(100) // poison: a stale request reached run
			} else {
				served.Add(int64(r.v))
			}
		}
	})
	for i := 0; i < 20; i++ {
		submit(p, req{stale: i%2 == 0, v: 1})
	}
	p.Close()
	if got := dropped.Load(); got != 10 {
		t.Fatalf("dropped %d stale requests, want 10", got)
	}
	if got := served.Load(); got != 10 {
		t.Fatalf("served sum %d, want 10 (fresh only)", got)
	}
}

// submit enqueues r with no deadline, reporting false once p is closed.
func submit[R any](p *Pool[R], r R) bool {
	ok, _ := p.SubmitCtx(context.Background(), r)
	return ok
}

// add stores an entry unconditionally.
func add[K comparable, V any](c *LRU[K, V], k K, v V) {
	c.AddIf(k, v, func(K) bool { return true })
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU[int, string](2)
	add(c, 1, "a")
	add(c, 2, "b")
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 missing")
	}
	add(c, 3, "c") // evicts 2 (least recently used)
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("1 = %q,%v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != "c" {
		t.Fatalf("3 = %q,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
}

func TestLRUOverwrite(t *testing.T) {
	c := NewLRU[string, int](2)
	add(c, "k", 1)
	add(c, "k", 2)
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	m.Observe("topk", 10*time.Millisecond, false)
	m.Observe("topk", 30*time.Millisecond, true)
	m.Observe("rank", 5*time.Millisecond, false)
	s := m.Snapshot()
	tk := s["topk"]
	if tk.Count != 2 || tk.Errors != 1 {
		t.Fatalf("topk count/errors = %d/%d", tk.Count, tk.Errors)
	}
	if tk.Max != 30*time.Millisecond {
		t.Fatalf("topk max = %v", tk.Max)
	}
	if tk.Avg != 20*time.Millisecond {
		t.Fatalf("topk avg = %v", tk.Avg)
	}
	if s["rank"].Count != 1 {
		t.Fatalf("rank count = %d", s["rank"].Count)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Observe("e", time.Microsecond, i%10 == 0)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()["e"]
	if s.Count != 4000 || s.Errors != 400 {
		t.Fatalf("count/errors = %d/%d, want 4000/400", s.Count, s.Errors)
	}
}
