// Package topk exercises the ctxloop analyzer inside a gated query-path
// import path.
package topk

import (
	"context"

	"wqrtq/internal/ctxcheck"
)

func work(x int) int { return x + 1 }

func workCtx(ctx context.Context, x int) int {
	if ctx.Err() != nil {
		return 0
	}
	return x + 1
}

// Bad does per-iteration work with a context in hand and never checks it.
func Bad(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs { // want `loop in query-path function Bad does per-iteration work but never checks cancellation`
		s += work(x)
	}
	return s
}

// Ticker polls a ctxcheck.Ticker: clean.
func Ticker(ctx context.Context, xs []int) (int, error) {
	tick := ctxcheck.Every(ctx, 1024)
	s := 0
	for _, x := range xs {
		if err := tick.Tick(); err != nil {
			return 0, err
		}
		s += work(x)
	}
	return s, nil
}

// Delegates hands the context to its callee: clean.
func Delegates(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs {
		s += workCtx(ctx, x)
	}
	return s
}

// NoHandle has no way to observe cancellation; the discipline binds its
// callers instead: clean.
func NoHandle(xs []int) int {
	s := 0
	for _, x := range xs {
		s += work(x)
	}
	return s
}

// Bounded is allowlisted: clean.
func Bounded(ctx context.Context, q []int) int {
	s := 0
	//wqrtq:bounded dimension sweep, at most a handful of iterations
	for j := range q {
		s += work(q[j])
	}
	return s
}

// NoWork is straight-line arithmetic per iteration: clean.
func NoWork(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// Iter carries its cancellation handle in a field (the Iterator pattern).
type Iter struct {
	tick *ctxcheck.Ticker
	i    int
}

func (it *Iter) Next() (int, bool) {
	if it.tick.Err() != nil {
		return 0, false
	}
	it.i++
	return it.i, it.i < 10
}

// Drain delegates to a method on a cancel-carrying receiver: clean.
func (it *Iter) Drain() int {
	s := 0
	for {
		v, ok := it.Next()
		if !ok {
			return s
		}
		s += v
	}
}

// Closure calls a local closure that polls the ticker itself: clean.
func Closure(ctx context.Context, xs []int) (int, error) {
	tick := ctxcheck.Every(ctx, 1024)
	step := func(x int) (int, error) {
		if err := tick.Tick(); err != nil {
			return 0, err
		}
		return work(x), nil
	}
	s := 0
	for _, x := range xs {
		v, err := step(x)
		if err != nil {
			return 0, err
		}
		s += v
	}
	return s, nil
}

// DrawThenRank mirrors a sample loop's block step (core.drawRankedSamples):
// the rank step ticks, so the block loop as a whole is clean, but the draw
// step lost its tick. The test suite passes without it.
func DrawThenRank(tick *ctxcheck.Ticker, n int, draw func([]int)) error {
	block := make([]int, 4)
	for done := 0; done < n; done += len(block) {
		for j := range block { // want `loop in query-path function DrawThenRank does per-iteration work but never checks cancellation`
			draw(block[j:])
		}
		for j := range block {
			if err := tick.Tick(); err != nil {
				return err
			}
			block[j] = work(block[j])
		}
	}
	return nil
}

type heap []int

func (h *heap) pop() int {
	s := *h
	v := s[len(s)-1]
	*h = s[:len(s)-1]
	return v
}

// Scan carries its ticker in a field, as topk.Iterator does.
type Scan struct {
	tick *ctxcheck.Ticker
	h    *heap
}

// Next is topk.Iterator.Next without its heap-loop tick: calls on the
// receiver's other fields are not delegation. The test suite passes
// without it.
func (s *Scan) Next() (int, bool) {
	for len(*s.h) > 0 { // want `loop in query-path function Next does per-iteration work but never checks cancellation`
		if v := s.h.pop(); v >= 0 {
			return v, true
		}
	}
	return 0, false
}

// SampleSearch mirrors MWK's sample loop (core.mwkSearch) without its
// tick: the inner loop is bounded, the outer one is not. The test suite
// passes without it.
func SampleSearch(tick *ctxcheck.Ticker, samples [][]int, wm []int) int {
	best := 0
	for _, s := range samples { // want `loop in query-path function SampleSearch does per-iteration work but never checks cancellation`
		//wqrtq:bounded one distance per why-not vector
		for i := range wm {
			best = max(best, work(s[i]))
		}
	}
	return best
}
