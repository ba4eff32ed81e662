package admission

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestClassesAreIndependent(t *testing.T) {
	c := NewController(Config{MaxInflight: 1, TargetLatency: time.Millisecond})
	ctx := context.Background()

	tq, shed := c.Admit(ctx, Query)
	if shed != nil {
		t.Fatalf("first query admit shed: %+v", shed)
	}
	// Query window is full; a mutation must still pass.
	if _, shed := c.Admit(ctx, Query); shed == nil || shed.Reason != ReasonConcurrency {
		t.Fatalf("second query admit: want concurrency shed, got %+v", shed)
	}
	tm, shed := c.Admit(ctx, Mutation)
	if shed != nil {
		t.Fatalf("mutation admit shed while query class full: %+v", shed)
	}
	tq.Done(time.Microsecond)
	tm.Done(time.Microsecond)

	st := c.Stats()
	if st["query"].ShedConcurrency != 1 || st["mutation"].ShedConcurrency != 0 {
		t.Fatalf("shed counters leaked across classes: %+v", st)
	}
}

func TestAIMDDecreasesOnOverTargetLatency(t *testing.T) {
	c := NewController(Config{MaxInflight: 64, TargetLatency: time.Millisecond})
	ctx := context.Background()
	l := c.limiters[Query]
	start := l.limit()
	for i := 0; i < 10; i++ {
		tk, shed := c.Admit(ctx, Query)
		if shed != nil {
			t.Fatalf("admit %d shed: %+v", i, shed)
		}
		tk.Done(10 * time.Millisecond) // 10x over target; the first cut is due at once
	}
	if got := l.limit(); got >= start {
		t.Fatalf("limit did not decrease under sustained over-target latency: start %.1f, now %.1f", start, got)
	}
	if c.Stats()["query"].Decreases == 0 {
		t.Fatal("no decrease recorded in stats")
	}

	// Sustained under-target completions grow the window back.
	low := l.limit()
	for i := 0; i < 500; i++ {
		tk, shed := c.Admit(ctx, Query)
		if shed != nil {
			t.Fatalf("recovery admit %d shed: %+v", i, shed)
		}
		tk.Done(10 * time.Microsecond)
	}
	if got := l.limit(); got <= low {
		t.Fatalf("limit did not recover under fast completions: cut to %.1f, now %.1f", low, got)
	}
}

func TestInjectErrorsAndLatency(t *testing.T) {
	c := NewController(Config{})
	ctx := context.Background()
	c.InjectErrors(2)
	for i := 0; i < 2; i++ {
		if _, shed := c.Admit(ctx, Query); shed == nil || shed.Reason != ReasonInjected {
			t.Fatalf("injected admit %d: got %+v", i, shed)
		}
	}
	tk, shed := c.Admit(ctx, Query)
	if shed != nil {
		t.Fatalf("budget spent but still shedding: %+v", shed)
	}
	tk.Done(time.Microsecond)
	if got := c.Stats()["query"].ShedInjected; got != 2 {
		t.Fatalf("ShedInjected = %d, want 2", got)
	}

	c.InjectLatency(20 * time.Millisecond)
	start := time.Now()
	tk, shed = c.Admit(ctx, Query)
	if shed != nil {
		t.Fatalf("latency-injected admit shed: %+v", shed)
	}
	tk.Done(time.Microsecond)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("InjectLatency not applied: admit took %v", d)
	}
	c.InjectLatency(0)
}

func TestConcurrentAdmitRace(t *testing.T) {
	c := NewController(Config{MaxInflight: 8, TargetLatency: time.Second})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tk, shed := c.Admit(ctx, Query)
				if shed == nil {
					tk.Done(time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()["query"]
	if st.Inflight != 0 {
		t.Fatalf("inflight leaked: %d", st.Inflight)
	}
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
}
