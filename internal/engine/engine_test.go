package engine

import (
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
