package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

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
	m := NewMetrics("topk", "rank")
	m.Observe(0, 10*time.Millisecond, nil)
	m.Observe(0, 30*time.Millisecond, errors.New("failed"))
	m.Observe(0, 50*time.Millisecond, fmt.Errorf("run: %w", context.DeadlineExceeded))
	s := m.Snapshot()
	tk := s["topk"]
	if tk.Count != 3 || tk.Errors != 2 || tk.Canceled != 1 || tk.Total != 90*time.Millisecond {
		t.Fatalf("topk count/errors/canceled/total = %d/%d/%d/%v", tk.Count, tk.Errors, tk.Canceled, tk.Total)
	}
	// Only the success enters the quantiles.
	for _, p := range []time.Duration{tk.P50, tk.P95, tk.P99} {
		if bucketOf(p) != bucketOf(10*time.Millisecond) {
			t.Fatalf("topk quantiles %v/%v/%v, want 10ms's bucket", tk.P50, tk.P95, tk.P99)
		}
	}
	if r, ok := s["rank"]; !ok || r != (CounterSnapshot{}) {
		t.Fatalf("rank = %+v, %v; want a zero entry", r, ok)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics("e")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				var err error
				if i%10 == 0 {
					err = errors.New("failed")
				}
				m.Observe(0, time.Microsecond, err)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()["e"]
	if s.Count != 4000 || s.Errors != 400 {
		t.Fatalf("count/errors = %d/%d, want 4000/400", s.Count, s.Errors)
	}
}
