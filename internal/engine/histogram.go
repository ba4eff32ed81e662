package engine

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket 0 holds what is below 2^minExp ns (about 1 µs), the last bucket
// what is from 2^maxExp ns (about 73 min) up, and each power of two in
// between is split into subBuckets equal buckets.
const (
	minExp, maxExp, subBits = 10, 42, 2
	subBuckets              = 1 << subBits
	numBuckets              = (maxExp-minExp)*subBuckets + 2
	generationSize          = 256 // observations per generation
)

// Histogram counts durations in fixed log-spaced buckets with atomic adds,
// so goroutines record and read it without a lock. Observation i lands in
// generation i/256, and a read merges the newest generation with the one
// before, so quantiles cover the last 256–512 observations. Three slots
// rotate: opening a generation clears the next slot, last read two
// generations ago (a writer stalled that long may still add into it,
// which an estimate tolerates). The zero value is ready to use.
type Histogram struct {
	n    atomic.Uint64
	p50  atomic.Int64 // see P50
	gens [3][numBuckets]atomic.Uint32
}

// Observe records d.
//
//wqrtq:contract noalloc
func (h *Histogram) Observe(d time.Duration) {
	i := h.n.Add(1) - 1
	g := i / generationSize
	if i%generationSize == 0 && g > 0 {
		// Generations g-1 and g-2 are complete, and the slot of g-2 is
		// about to be cleared: their median is the next window's P50.
		h.p50.Store(int64(h.merged(g - 1).Quantile(0.5)))
		for b := range h.gens[(g+1)%3] {
			h.gens[(g+1)%3][b].Store(0)
		}
	}
	h.gens[g%3][bucketOf(d)].Add(1)
	if g == 0 {
		h.p50.Store(int64(h.merged(0).Quantile(0.5)))
	}
}

// P50 returns the median of the observations as of the last generation
// change, the first generation's as of its latest observation (0 before
// the first): one atomic load, for the readers on every request's path.
// Until the first change it equals Counts().Quantile(0.5); from then on it
// covers the 512 observations before the latest change, and trails the
// live window by at most one generation.
func (h *Histogram) P50() time.Duration { return time.Duration(h.p50.Load()) }

// Counts returns the merged buckets of the newest two generations.
func (h *Histogram) Counts() Counts {
	return h.merged((h.n.Load() - 1) / generationSize) // n = 0 wraps; every slot is empty then
}

// merged returns the buckets of generation g merged with those of the one
// before.
func (h *Histogram) merged(g uint64) Counts {
	var c, prev Counts
	for b := range c {
		c[b], prev[b] = uint64(h.gens[g%3][b].Load()), uint64(h.gens[(g+2)%3][b].Load())
	}
	c.Merge(&prev)
	return c
}

// Counts is a histogram's buckets at one moment.
type Counts [numBuckets]uint64

// Merge adds o into c, giving the counts of one histogram fed both.
func (c *Counts) Merge(o *Counts) {
	for b := range c {
		c[b] += o[b]
	}
}

// Quantile returns 0 when c is empty, and otherwise a duration in the
// bucket that holds the q-quantile (of n sorted durations, the one at
// index min(⌊q·n⌋, n−1)): the midpoint between its bound and the next.
// From 1 µs to 2^maxExp ns it is off by at most an eighth.
func (c Counts) Quantile(q float64) time.Duration {
	var n uint64
	for _, x := range c {
		n += x
	}
	if n == 0 {
		return 0
	}
	r, b := min(uint64(q*float64(n)), n-1), 0
	for ; r >= c[b]; b++ {
		r -= c[b]
	}
	return (bound(b) + bound(b+1)) / 2
}

// bucketOf returns the bucket that holds d; a negative d counts as 0.
func bucketOf(d time.Duration) int {
	if d < 1<<minExp {
		return 0
	}
	e := bits.Len64(uint64(d)) - 1
	if e >= maxExp {
		return numBuckets - 1
	}
	return 1 + (e-minExp)*subBuckets + int(uint64(d)>>(e-subBits))&(subBuckets-1)
}

// bound returns the least duration of bucket b for 0 < b < numBuckets; it
// runs the spacing on past both ends, so midpoints stay in their bucket.
func bound(b int) time.Duration {
	e := minExp + (b-1)/subBuckets
	return time.Duration(subBuckets+(b-1)%subBuckets) << (e - subBits)
}
