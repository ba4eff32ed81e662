// Package kernel implements the structure-of-arrays scoring kernel behind
// the "many weights × one point set" computations of the framework: the
// per-sample rank counts of the MWK/MQWK refinement loops, the below-q
// score lists of the why-not vectors, and the cell-local counts of the
// reverse top-k grid.
//
// # Layout
//
// A Coords holds a candidate set flattened column-major (d coordinate
// columns of length n, one per dimension). A count is one weight's sweep
// of the columns: CountBelowCapped counts the points of a row window
// scoring strictly below a threshold and stops once the count passes a
// cap: a sampled rank matters only while it is at most k'max, and reverse
// top-k asks only whether a count reaches k. CountBelowWeights is the same
// loop with no reachable cap, for many weights.
// ScoreBlock writes the score columns of a packed block of weights (weight
// b at wb[b*d : (b+1)*d]) for callers that keep scores rather than counts.
//
// # Bit-identicality
//
// Every score is evaluated with the same sequence of multiplies and
// left-to-right adds as vec.Score (s := w0*p0; s += w1*p1; ...), and every
// count compares with the same strict <. Float addition of a product chain
// is association-order dependent, and the framework's differential
// guarantees (kernel-on vs kernel-off answers must match bit for bit)
// hinge on this order being preserved.
//
// # Dimensions
//
// Dimension 3, that of the why-not and reverse top-k workloads, runs
// specialized loops: the columns are re-sliced to one range, so the
// compiler drops every bounds check, and the weight sits in registers.
// Every other dimension runs one generic loop.
package kernel

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// BlockSize is the most weighting vectors one packed block carries: a
// ScoreBlock caller's block of 64 weights stays L1-resident beside the
// streamed columns. CountBelowWeights counts in chunks of this size, so a
// canceled CountBelowWeightsCtx unwinds within one chunk.
const BlockSize = 64

// Coords is a candidate point set flattened column-major: Col(j)[i] is
// coordinate j of point i. The zero value is empty; Reset prepares it for a
// new point set while retaining column capacity, so a pooled Coords costs
// no allocation in steady state.
type Coords struct {
	n    int
	cols [][]float64
}

// Reset empties the coordinate columns and sets the dimensionality,
// retaining backing capacity.
func (c *Coords) Reset(d int) {
	if cap(c.cols) < d {
		cols := make([][]float64, d)
		copy(cols, c.cols)
		c.cols = cols
	}
	c.cols = c.cols[:d]
	for j := range c.cols {
		c.cols[j] = c.cols[j][:0]
	}
	c.n = 0
}

// Append adds one point (len d) to the set. Growth amortizes into the
// column scratch Reset retains across refills, so a warm refill allocates
// nothing (TestKernelAllocsPerOp).
func (c *Coords) Append(p []float64) {
	for j := range c.cols {
		c.cols[j] = append(c.cols[j], p[j])
	}
	c.n++
}

// AppendBelow appends to c, in order, the points of rows — a row-major
// block of Dim() coordinates per point — that lie below hi on some
// coordinate, and classifies every point of the block against the box
// [lo, hi] into cls (len(rows)/Dim() bytes): 0 for a point not appended,
// and otherwise 1, plus 2 if the point is <= hi everywhere, plus 4 if it
// is >= lo everywhere. It returns the OR of the classes. Each point is
// written at the next free row of every column, and the row cursor
// advances by a 0/1 flag: a point not kept is overwritten by the next, and
// no comparison becomes a branch. Dimension 3, the why-not workloads'
// dimensionality, runs a specialization with the box in registers.
func (c *Coords) AppendBelow(rows, lo, hi []float64, cls []uint8) uint8 {
	return c.appendBelow(rows, lo, hi, cls, len(c.cols))
}

// appendBelow is AppendBelow through the d = 3 specialization when spec
// is 3 and the generic loop otherwise (spec 0: always).
func (c *Coords) appendBelow(rows, lo, hi []float64, cls []uint8, spec int) uint8 {
	d := len(c.cols)
	m := len(rows) / d
	if len(cls) < m || len(lo) < d || len(hi) < d {
		panic("kernel: short class buffer or box")
	}
	rows, cls = rows[:m*d], cls[:m]
	n := c.n
	for j, col := range c.cols {
		c.cols[j] = slices.Grow(col[:n], m)[:n+m]
	}
	var or uint8
	if spec == 3 {
		n, or = appendBelow3(c.cols[0], c.cols[1], c.cols[2], n, rows, lo, hi, cls)
	} else {
		n, or = appendBelowGeneric(c.cols, n, rows, lo, hi, cls)
	}
	for j, col := range c.cols {
		c.cols[j] = col[:n]
	}
	c.n = n
	return or
}

func appendBelow3(x, y, z []float64, n int, rows, lo, hi []float64, cls []uint8) (int, uint8) {
	h0, h1, h2 := hi[0], hi[1], hi[2]
	l0, l1, l2 := lo[0], lo[1], lo[2]
	var or uint8
	for k := range cls {
		p := rows[3*k : 3*k+3 : 3*k+3]
		a, b, c := p[0], p[1], p[2]
		x[n], y[n], z[n] = a, b, c
		keep := b01(a < h0) | b01(b < h1) | b01(c < h2)
		le := b01(a <= h0) & b01(b <= h1) & b01(c <= h2)
		ge := b01(a >= l0) & b01(b >= l1) & b01(c >= l2)
		cl := keep * (1 | le<<1 | ge<<2)
		cls[k] = cl
		or |= cl
		n += int(keep)
	}
	return n, or
}

func appendBelowGeneric(cols [][]float64, n int, rows, lo, hi []float64, cls []uint8) (int, uint8) {
	d := len(cols)
	var or uint8
	for k := range cls {
		keep, le, ge := uint8(0), uint8(1), uint8(1)
		for j, v := range rows[k*d : (k+1)*d] {
			cols[j][n] = v
			keep |= b01(v < hi[j])
			le &= b01(v <= hi[j])
			ge &= b01(v >= lo[j])
		}
		cl := keep * (1 | le<<1 | ge<<2)
		cls[k] = cl
		or |= cl
		n += int(keep)
	}
	return n, or
}

// b01 returns b as 0 or 1.
func b01(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Len returns the number of points.
func (c *Coords) Len() int { return c.n }

// Dim returns the dimensionality.
func (c *Coords) Dim() int { return len(c.cols) }

// Col returns coordinate column j.
func (c *Coords) Col(j int) []float64 { return c.cols[j] }

// Fill resets c to dimension d and n points accessed through at.
func (c *Coords) Fill(d, n int, at func(int) []float64) {
	c.Resize(d, n)
	for i := 0; i < n; i++ {
		p := at(i)
		for j, col := range c.cols {
			col[i] = p[j]
		}
	}
}

// Resize sets c to n points of dimension d, retaining column capacity; the
// coordinates are unspecified until the caller has Put every slot. It
// serves fills that place points out of order (a counting sort into the
// columns), which Append cannot express.
func (c *Coords) Resize(d, n int) {
	c.Reset(d)
	for j := range c.cols {
		if cap(c.cols[j]) < n {
			c.cols[j] = make([]float64, n)
		}
		c.cols[j] = c.cols[j][:n]
	}
	c.n = n
}

// Put copies point i of src into slot t of c (same dimensionality).
func (c *Coords) Put(t int, src *Coords, i int) {
	for j, col := range c.cols {
		col[t] = src.cols[j][i]
	}
}

// PrefixOf makes c a view of the first n points of src (see SliceOf).
func (c *Coords) PrefixOf(src *Coords, n int) { c.SliceOf(src, 0, n) }

// SliceOf makes c a view of points [lo, hi) of src: the columns alias
// src's memory (no copy), so c must not be appended to and is valid only
// while src is unchanged. c's own column-header array is reused, so a
// pooled view costs no allocation in steady state.
func (c *Coords) SliceOf(src *Coords, lo, hi int) {
	c.cols = c.cols[:0]
	for _, col := range src.cols {
		c.cols = append(c.cols, col[lo:hi:hi])
	}
	c.n = hi - lo
}

// CountBelowCapped counts the points of c in the row window [lo, hi)
// scoring strictly below fq under the single weight w, abandoning the scan
// once the count exceeds cap: the returned count is exact when <= cap and
// cap+1 otherwise, and scanned reports how many points of the window were
// examined. The sampling loops use it for ranks that only matter while
// small — a sample whose rank exceeds k'max is discarded whatever its
// exact value, so most discarded samples cost a fraction of a full sweep —
// and the cell index for one cell's candidate rows. The scan order is the
// Coords order and the arithmetic is vec.Score's, so a count with no
// reachable cap (math.MaxInt, as CountBelowWeights passes) is exact.
//
//wqrtq:contract noescape(c,w) nobce noalloc
func CountBelowCapped(c *Coords, w []float64, fq float64, cap, lo, hi int) (count, scanned int) {
	if cap < 0 {
		return cap + 1, 0
	}
	if lo < 0 || hi < lo || hi > c.n {
		panic("kernel: row window out of range")
	}
	n := hi - lo
	if n == 0 {
		return 0, 0
	}
	if len(c.cols) != 3 {
		return countBelowCappedGeneric(c, w, fq, cap, lo, hi)
	}
	// The d = 3 loop pins the column lengths with one guard and re-slices
	// every column to the window, after which every y[i]-style load shares
	// x's range-proved index. The guard only fires on a corrupted Coords
	// (the builder keeps all columns at length c.n).
	x, y, z := c.cols[0], c.cols[1], c.cols[2]
	if len(x) < hi || len(y) < hi || len(z) < hi || len(w) < 3 {
		panic("kernel: short columns or weight")
	}
	x, y, z = x[lo:hi], y[lo:hi], z[lo:hi]
	w0, w1, w2 := w[0], w[1], w[2]
	for i, xi := range x {
		s := w0 * xi
		s += w1 * y[i]
		s += w2 * z[i]
		if s < fq {
			count++
			if count > cap {
				return count, i + 1
			}
		}
	}
	return count, n
}

// countBelowCappedGeneric is the arbitrary-dimension tail of
// CountBelowCapped, split out so the d = 3 loop can carry a nobce
// contract: its slice-of-slices walk keeps structural bounds checks no
// analysis can remove. It must not be inlined, or those checks would
// count against the caller's contract.
//
//go:noinline
func countBelowCappedGeneric(c *Coords, w []float64, fq float64, cap, lo, hi int) (count, scanned int) {
	d := len(c.cols)
	for i := lo; i < hi; i++ {
		s := w[0] * c.cols[0][i]
		for j := 1; j < d; j++ {
			s += w[j] * c.cols[j][i]
		}
		if s < fq {
			count++
			if count > cap {
				return count, i - lo + 1
			}
		}
	}
	return count, hi - lo
}

// ScoreBlock writes the score columns of a packed weight block, one sweep
// of the candidate columns per weight: out[b*n+i] is the score of point i
// under weight b (n = c.Len(), len(out) >= B*n). It performs no allocation.
// Scores are bit-identical to vec.Score.
//
//wqrtq:contract noescape(c,wb,out) nobce noalloc
func ScoreBlock(c *Coords, wb []float64, nWeights int, out []float64) {
	d := len(c.cols)
	n := c.n
	if len(out) < nWeights*n {
		panic("kernel: score output shorter than B*n")
	}
	if n <= 0 || nWeights <= 0 {
		return
	}
	if len(wb) < nWeights*d {
		panic("kernel: packed block shorter than its weight count")
	}
	if d != 3 {
		scoreBlockGeneric(c, wb, nWeights, out)
		return
	}
	x, y, z := c.cols[0], c.cols[1], c.cols[2]
	if len(x) < n || len(y) < n || len(z) < n {
		panic("kernel: short columns")
	}
	x, y, z = x[:n], y[:n], z[:n]
	// The weight loop walks wb and out in lockstep slice form, so every
	// index inside it is covered by the loop condition.
	wrem, orem := wb, out
	for nw := nWeights; nw > 0 && len(wrem) >= 3 && len(orem) >= n; nw-- {
		w0, w1, w2 := wrem[0], wrem[1], wrem[2]
		col := orem[:n]
		for i, xi := range x {
			s := w0 * xi
			s += w1 * y[i]
			s += w2 * z[i]
			col[i] = s
		}
		wrem, orem = wrem[3:], orem[n:]
	}
}

// scoreBlockGeneric is ScoreBlock's arbitrary-dimension tail, split out so
// the d = 3 loop can carry a nobce contract (see
// countBelowCappedGeneric).
func scoreBlockGeneric(c *Coords, wb []float64, nWeights int, out []float64) {
	d := len(c.cols)
	n := c.n
	for b := 0; b < nWeights; b++ {
		w := wb[b*d : (b+1)*d]
		col := out[b*n : (b+1)*n]
		for i := 0; i < n; i++ {
			s := w[0] * c.cols[0][i]
			for j := 1; j < d; j++ {
				s += w[j] * c.cols[j][i]
			}
			col[i] = s
		}
	}
}

// Scratch holds the reusable buffers of one evaluation site: the SoA image
// of the scanned candidate set and a packed block's weight and threshold
// arrays. Obtain one with GetScratch and return it with PutScratch; in
// steady state a pooled Scratch costs no allocation.
type Scratch struct {
	// Uni is the SoA image of the candidate set of one call.
	Uni Coords
	// WB and Fqs are the packed block buffers.
	WB  []float64
	Fqs []float64
}

// Block ensures the packed buffers hold at least b weights of dimension d
// and returns them sliced to exactly b.
func (s *Scratch) Block(b, d int) (wb, fqs []float64) {
	if cap(s.WB) < b*d {
		s.WB = make([]float64, b*d)
	}
	if cap(s.Fqs) < b {
		s.Fqs = make([]float64, b)
	}
	return s.WB[:b*d], s.Fqs[:b]
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes a Scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the shared pool.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// Counters accumulates the kernel's work over the batches of weights a
// caller counted or scored over one candidate set (a CountBelowWeights
// chunk, a ScoreBlock block, a block of samples, a grid query's vectors),
// in blocks of at most BlockSize weights: a batch of n weights is
// ⌈n/BlockSize⌉ blocks. One Counters is shared by every snapshot in a
// clone family (like the skyband counters), so the serving engine reports
// cumulative numbers over the index's lifetime.
type Counters struct {
	blocks  atomic.Int64
	weights atomic.Int64
	points  atomic.Int64
}

// NewCounters creates a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// Add records one batch of nWeights weights over nPoints candidate
// points: ⌈nWeights/BlockSize⌉ blocks.
func (c *Counters) Add(nWeights, nPoints int) {
	if c == nil {
		return
	}
	c.blocks.Add(int64((nWeights + BlockSize - 1) / BlockSize))
	c.weights.Add(int64(nWeights))
	c.points.Add(int64(nPoints))
}

// CountersSnapshot is a point-in-time copy of the cumulative counters.
type CountersSnapshot struct {
	// Blocks counts blocks of at most BlockSize weights; Weights the
	// weighting vectors they evaluated; Points the candidate points per
	// batch, summed.
	Blocks  int64 `json:"blocks"`
	Weights int64 `json:"weights"`
	Points  int64 `json:"points"`
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() CountersSnapshot {
	if c == nil {
		return CountersSnapshot{}
	}
	return CountersSnapshot{
		Blocks:  c.blocks.Load(),
		Weights: c.weights.Load(),
		Points:  c.points.Load(),
	}
}

// CountBelowWeights counts, for every i < nWeights, the points of c scoring
// strictly below fqs[i] under the weight at(i): counts[i] = |{p in c :
// f(w_i, p) < fqs[i]}|, exact. The weights are indexed through at (avoiding
// a []vec.Weight dependency); ct, when non-nil, records each chunk of
// BlockSize weights. sc is unused: the parameter stays only because the
// benchmark harness (bench/replay.go) calls this signature, and it goes
// with ROADMAP item 6(c).
func CountBelowWeights(c *Coords, nWeights int, at func(int) []float64, fqs []float64, counts []int, sc *Scratch, ct *Counters) {
	_ = CountBelowWeightsCtx(context.Background(), c, nWeights, at, fqs, counts, ct)
}

// CountBelowWeightsCtx is CountBelowWeights with cooperative cancellation:
// ctx is polled before every chunk of BlockSize weights. Each weight is
// one CountBelowCapped sweep with no reachable cap.
func CountBelowWeightsCtx(ctx context.Context, c *Coords, nWeights int, at func(int) []float64, fqs []float64, counts []int, ct *Counters) error {
	n := c.Len()
	for base := 0; base < nWeights; base += BlockSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		nb := min(BlockSize, nWeights-base)
		for j := base; j < base+nb; j++ {
			counts[j], _ = CountBelowCapped(c, at(j), fqs[j], math.MaxInt, 0, n)
		}
		ct.Add(nb, n)
	}
	return nil
}
