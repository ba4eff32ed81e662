// Package kernel implements the blocked structure-of-arrays scoring kernel
// behind the "many weights × one point set" computations of the framework:
// the per-sample rank evaluations of the MWK/MQWK refinement loops, and the
// candidate counting of reverse top-k over a k-skyband.
//
// # Layout
//
// A Coords holds a candidate set flattened column-major (d coordinate
// columns of length n, one per dimension). The blocked entry points take a
// block of B weighting vectors packed row-major (weight b occupying
// wb[b*d : (b+1)*d]) and sweep the candidate columns once, evaluating all B
// scores per point while the point's coordinates sit in registers. The
// scalar alternative — B independent sweeps, one per weight — reads every
// candidate coordinate B times from memory; the blocked sweep reads it
// once, so a 100-sample refinement pays one memory pass instead of one
// hundred.
//
// # Bit-identicality
//
// Every score is evaluated with the same sequence of multiplies and
// left-to-right adds as vec.Score (s := w0*p0; s += w1*p1; ...). Float
// addition of a product chain is association-order dependent, and the
// framework's differential guarantees (kernel-on vs kernel-off answers must
// match bit for bit) hinge on this order being preserved; the register-
// blocked inner loops below change only which weight is applied when, never
// the arithmetic within one (weight, point) score.
//
// # Blocking factor
//
// BlockSize bounds how many weights one packed sweep carries: the packed
// block (BlockSize×d float64s) plus the threshold and counter arrays must
// stay L1-resident alongside the streamed coordinate columns, and 64
// weights × 4 dims × 8 bytes = 2 KiB leaves that comfortably true on
// every current core. Within a block, the inner loops are additionally
// register-blocked in groups of four weights, amortizing each point load
// over four score evaluations without spilling the accumulators.
package kernel

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// BlockSize is the number of weighting vectors one packed sweep evaluates;
// callers with more weights chunk them (CountBelowWeights does this
// internally).
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

// CountBelowBlock counts, for each weight b in the packed block wb (len(fqs)
// weights, row-major d values each), the points of c scoring strictly below
// fqs[b], writing the counts into counts[b]. It performs no allocation.
// Dimensions 2–4 run register-blocked specializations; other dimensions use
// the generic sweep. Counts are exact and identical to a scalar scan: each
// score is computed with vec.Score's arithmetic order, and the comparison
// is the same strict <.
//
//wqrtq:contract noescape(c,wb,fqs,counts) nobce noalloc
func CountBelowBlock(c *Coords, wb []float64, fqs []float64, counts []int) {
	if len(counts) < len(fqs) {
		panic("kernel: counts shorter than fqs")
	}
	if c.n == 0 {
		for b := range fqs {
			counts[b] = 0
		}
		return
	}
	switch len(c.cols) {
	case 2:
		countBelow2(c.cols[0], c.cols[1], wb, fqs, counts)
	case 3:
		countBelow3(c.cols[0], c.cols[1], c.cols[2], wb, fqs, counts)
	case 4:
		countBelow4(c.cols[0], c.cols[1], c.cols[2], c.cols[3], wb, fqs, counts)
	default:
		countBelowGeneric(c.cols, wb, fqs, counts)
	}
}

// The dimension-specialized sweeps below walk the packed block in lockstep
// slice form — every group of weights consumes a constant-length prefix of
// wb/fqs/counts and the loop re-slices all three past it — because that is
// the shape the prove pass eliminates every bounds check for: the loop
// condition (`len(wb) >= 8 && ...`) dominates each constant index and each
// advancing re-slice. The classical `wb[b*2 : b*2+8]` form keeps its slice
// check, since prove cannot reason through the multiplication. The entry
// guards make the lockstep walk cover exactly len(fqs) weights, preserving
// the fail-loud behavior the indexed form had on short buffers.

//wqrtq:contract noescape(x,y,wb,fqs,counts) nobce noalloc
func countBelow2(x, y, wb, fqs []float64, counts []int) {
	if len(y) < len(x) {
		panic("kernel: ragged coordinate columns")
	}
	if len(wb) < 2*len(fqs) || len(counts) < len(fqs) {
		panic("kernel: packed block shorter than its weight count")
	}
	y = y[:len(x)]
	for len(fqs) >= 4 && len(wb) >= 8 && len(counts) >= 4 {
		w := wb[:8]
		w00, w01 := w[0], w[1]
		w10, w11 := w[2], w[3]
		w20, w21 := w[4], w[5]
		w30, w31 := w[6], w[7]
		f0, f1, f2, f3 := fqs[0], fqs[1], fqs[2], fqs[3]
		var c0, c1, c2, c3 int
		for i, xi := range x {
			yi := y[i]
			s := w00 * xi
			s += w01 * yi
			if s < f0 {
				c0++
			}
			s = w10 * xi
			s += w11 * yi
			if s < f1 {
				c1++
			}
			s = w20 * xi
			s += w21 * yi
			if s < f2 {
				c2++
			}
			s = w30 * xi
			s += w31 * yi
			if s < f3 {
				c3++
			}
		}
		counts[0], counts[1], counts[2], counts[3] = c0, c1, c2, c3
		wb, fqs, counts = wb[8:], fqs[4:], counts[4:]
	}
	for len(fqs) >= 1 && len(wb) >= 2 && len(counts) >= 1 {
		w0, w1 := wb[0], wb[1]
		fq := fqs[0]
		cnt := 0
		for i, xi := range x {
			s := w0 * xi
			s += w1 * y[i]
			if s < fq {
				cnt++
			}
		}
		counts[0] = cnt
		wb, fqs, counts = wb[2:], fqs[1:], counts[1:]
	}
}

//wqrtq:contract noescape(x,y,z,wb,fqs,counts) nobce noalloc
func countBelow3(x, y, z, wb, fqs []float64, counts []int) {
	if len(y) < len(x) || len(z) < len(x) {
		panic("kernel: ragged coordinate columns")
	}
	if len(wb) < 3*len(fqs) || len(counts) < len(fqs) {
		panic("kernel: packed block shorter than its weight count")
	}
	y = y[:len(x)]
	z = z[:len(x)]
	for len(fqs) >= 4 && len(wb) >= 12 && len(counts) >= 4 {
		w := wb[:12]
		w00, w01, w02 := w[0], w[1], w[2]
		w10, w11, w12 := w[3], w[4], w[5]
		w20, w21, w22 := w[6], w[7], w[8]
		w30, w31, w32 := w[9], w[10], w[11]
		f0, f1, f2, f3 := fqs[0], fqs[1], fqs[2], fqs[3]
		var c0, c1, c2, c3 int
		for i, xi := range x {
			yi, zi := y[i], z[i]
			s := w00 * xi
			s += w01 * yi
			s += w02 * zi
			if s < f0 {
				c0++
			}
			s = w10 * xi
			s += w11 * yi
			s += w12 * zi
			if s < f1 {
				c1++
			}
			s = w20 * xi
			s += w21 * yi
			s += w22 * zi
			if s < f2 {
				c2++
			}
			s = w30 * xi
			s += w31 * yi
			s += w32 * zi
			if s < f3 {
				c3++
			}
		}
		counts[0], counts[1], counts[2], counts[3] = c0, c1, c2, c3
		wb, fqs, counts = wb[12:], fqs[4:], counts[4:]
	}
	for len(fqs) >= 1 && len(wb) >= 3 && len(counts) >= 1 {
		w0, w1, w2 := wb[0], wb[1], wb[2]
		fq := fqs[0]
		cnt := 0
		for i, xi := range x {
			s := w0 * xi
			s += w1 * y[i]
			s += w2 * z[i]
			if s < fq {
				cnt++
			}
		}
		counts[0] = cnt
		wb, fqs, counts = wb[3:], fqs[1:], counts[1:]
	}
}

//wqrtq:contract noescape(x,y,z,u,wb,fqs,counts) nobce noalloc
func countBelow4(x, y, z, u, wb, fqs []float64, counts []int) {
	if len(y) < len(x) || len(z) < len(x) || len(u) < len(x) {
		panic("kernel: ragged coordinate columns")
	}
	if len(wb) < 4*len(fqs) || len(counts) < len(fqs) {
		panic("kernel: packed block shorter than its weight count")
	}
	y = y[:len(x)]
	z = z[:len(x)]
	u = u[:len(x)]
	for len(fqs) >= 2 && len(wb) >= 8 && len(counts) >= 2 {
		w := wb[:8]
		w00, w01, w02, w03 := w[0], w[1], w[2], w[3]
		w10, w11, w12, w13 := w[4], w[5], w[6], w[7]
		f0, f1 := fqs[0], fqs[1]
		var c0, c1 int
		for i, xi := range x {
			yi, zi, ui := y[i], z[i], u[i]
			s := w00 * xi
			s += w01 * yi
			s += w02 * zi
			s += w03 * ui
			if s < f0 {
				c0++
			}
			s = w10 * xi
			s += w11 * yi
			s += w12 * zi
			s += w13 * ui
			if s < f1 {
				c1++
			}
		}
		counts[0], counts[1] = c0, c1
		wb, fqs, counts = wb[8:], fqs[2:], counts[2:]
	}
	for len(fqs) >= 1 && len(wb) >= 4 && len(counts) >= 1 {
		w0, w1, w2, w3 := wb[0], wb[1], wb[2], wb[3]
		fq := fqs[0]
		cnt := 0
		for i, xi := range x {
			s := w0 * xi
			s += w1 * y[i]
			s += w2 * z[i]
			s += w3 * u[i]
			if s < fq {
				cnt++
			}
		}
		counts[0] = cnt
		wb, fqs, counts = wb[4:], fqs[1:], counts[1:]
	}
}

// countBelowGeneric carries no nobce clause deliberately: the inner
// cols[j][i] walk indexes a slice of slices whose lengths the prove pass
// cannot relate, so its checks are structural. Dimensions 2–4 never reach
// it; the paper's real datasets (Household d = 6, NBA d = 13) do.
//
//wqrtq:contract noescape(cols,wb,fqs,counts) noalloc
func countBelowGeneric(cols [][]float64, wb, fqs []float64, counts []int) {
	d := len(cols)
	n := len(cols[0])
	for b := range fqs {
		w := wb[b*d : (b+1)*d]
		fq := fqs[b]
		cnt := 0
		for i := 0; i < n; i++ {
			s := w[0] * cols[0][i]
			for j := 1; j < d; j++ {
				s += w[j] * cols[j][i]
			}
			if s < fq {
				cnt++
			}
		}
		counts[b] = cnt
	}
}

// CountBelowCapped counts the points of c in the row window [lo, hi)
// scoring strictly below fq under the single weight w, abandoning the scan
// once the count exceeds cap: the returned count is exact when <= cap and
// cap+1 otherwise, and scanned reports how many points of the window were
// examined. The sampling loops use it for ranks that only matter while
// small — a sample whose rank exceeds k'max is discarded whatever its
// exact value, so most discarded samples cost a fraction of a full sweep —
// and the cell index for one cell's candidate rows. The scan order is the
// Coords order and the arithmetic is vec.Score's, so an uncapped result is
// bit-identical to CountBelowBlock's over the same rows.
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
	// Each specialization pins the column lengths with one guard and
	// re-slices every column to the window, after which every y[i]-style
	// load shares x's range-proved index. The guards only fire on a
	// corrupted Coords (the builder keeps all columns at length c.n).
	switch len(c.cols) {
	case 2:
		x, y := c.cols[0], c.cols[1]
		if len(x) < hi || len(y) < hi || len(w) < 2 {
			panic("kernel: short columns or weight")
		}
		x, y = x[lo:hi], y[lo:hi]
		w0, w1 := w[0], w[1]
		for i, xi := range x {
			s := w0 * xi
			s += w1 * y[i]
			if s < fq {
				count++
				if count > cap {
					return count, i + 1
				}
			}
		}
	case 3:
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
	case 4:
		x, y, z, u := c.cols[0], c.cols[1], c.cols[2], c.cols[3]
		if len(x) < hi || len(y) < hi || len(z) < hi || len(u) < hi || len(w) < 4 {
			panic("kernel: short columns or weight")
		}
		x, y, z, u = x[lo:hi], y[lo:hi], z[lo:hi], u[lo:hi]
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		for i, xi := range x {
			s := w0 * xi
			s += w1 * y[i]
			s += w2 * z[i]
			s += w3 * u[i]
			if s < fq {
				count++
				if count > cap {
					return count, i + 1
				}
			}
		}
	default:
		return countBelowCappedGeneric(c, w, fq, cap, lo, hi)
	}
	return count, n
}

// countBelowCappedGeneric is the arbitrary-dimension tail of
// CountBelowCapped, split out so the specialized cases can carry a nobce
// contract: like countBelowGeneric, its slice-of-slices walk keeps
// structural bounds checks no analysis can remove. It must not be inlined,
// or those checks would count against the caller's contract.
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

// ScoreBlock produces the score columns of a packed weight block in one
// sweep over the candidate columns: out[b*n+i] is the score of point i
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
	// Like the count sweeps, the weight loop walks wb and out in lockstep
	// slice form so every index inside it is covered by the loop condition.
	switch d {
	case 2:
		x, y := c.cols[0], c.cols[1]
		if len(x) < n || len(y) < n {
			panic("kernel: short columns")
		}
		x, y = x[:n], y[:n]
		wrem, orem := wb, out
		for nw := nWeights; nw > 0 && len(wrem) >= 2 && len(orem) >= n; nw-- {
			w0, w1 := wrem[0], wrem[1]
			col := orem[:n]
			for i, xi := range x {
				s := w0 * xi
				s += w1 * y[i]
				col[i] = s
			}
			wrem, orem = wrem[2:], orem[n:]
		}
	case 3:
		x, y, z := c.cols[0], c.cols[1], c.cols[2]
		if len(x) < n || len(y) < n || len(z) < n {
			panic("kernel: short columns")
		}
		x, y, z = x[:n], y[:n], z[:n]
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
	case 4:
		x, y, z, u := c.cols[0], c.cols[1], c.cols[2], c.cols[3]
		if len(x) < n || len(y) < n || len(z) < n || len(u) < n {
			panic("kernel: short columns")
		}
		x, y, z, u = x[:n], y[:n], z[:n], u[:n]
		wrem, orem := wb, out
		for nw := nWeights; nw > 0 && len(wrem) >= 4 && len(orem) >= n; nw-- {
			w0, w1, w2, w3 := wrem[0], wrem[1], wrem[2], wrem[3]
			col := orem[:n]
			for i, xi := range x {
				s := w0 * xi
				s += w1 * y[i]
				s += w2 * z[i]
				s += w3 * u[i]
				col[i] = s
			}
			wrem, orem = wrem[4:], orem[n:]
		}
	default:
		scoreBlockGeneric(c, wb, nWeights, out)
	}
}

// scoreBlockGeneric is ScoreBlock's arbitrary-dimension tail, split out so
// the specialized cases can carry a nobce contract (see
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

// Scratch holds the reusable buffers of one blocked evaluation site: the
// SoA image of the scanned candidate set and the packed per-block weight,
// threshold and count arrays. Obtain one with GetScratch and return it with
// PutScratch; in steady state a pooled Scratch makes the blocked paths
// allocation-free.
type Scratch struct {
	// Uni is the SoA image of the candidate set of one call.
	Uni Coords
	// WB, Fqs and Counts are the packed block buffers.
	WB     []float64
	Fqs    []float64
	Counts []int
}

// Block ensures the packed buffers hold at least b weights of dimension d
// and returns them sliced to exactly b.
func (s *Scratch) Block(b, d int) (wb, fqs []float64, counts []int) {
	if cap(s.WB) < b*d {
		s.WB = make([]float64, b*d)
	}
	if cap(s.Fqs) < b {
		s.Fqs = make([]float64, b)
	}
	if cap(s.Counts) < b {
		s.Counts = make([]int, b)
	}
	return s.WB[:b*d], s.Fqs[:b], s.Counts[:b]
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

// Counters accumulates blocked-kernel activity. One Counters is shared by
// every snapshot in a clone family (like the skyband counters), so the
// serving engine reports cumulative numbers over the index's lifetime.
type Counters struct {
	blocks  atomic.Int64
	weights atomic.Int64
	points  atomic.Int64
}

// NewCounters creates a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// Add records one blocked sweep evaluating nWeights weights over nPoints
// candidate points.
func (c *Counters) Add(nWeights, nPoints int) {
	if c == nil {
		return
	}
	c.blocks.Add(1)
	c.weights.Add(int64(nWeights))
	c.points.Add(int64(nPoints))
}

// CountersSnapshot is a point-in-time copy of the cumulative counters.
type CountersSnapshot struct {
	// Blocks counts blocked sweeps; Weights the weighting vectors they
	// evaluated; Points the candidate points per sweep, summed — so
	// Weights*Points/Blocks approximates the score evaluations amortized
	// per sweep.
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

// CountBelowWeights evaluates count-below for an arbitrary number of
// weights, chunking them into BlockSize packed sweeps through sc's buffers:
// for every i, counts[i] = |{p in c : f(ws[i], p) < fqs[i]}|. ws is indexed
// through at (avoiding a []vec.Weight dependency); ct, when non-nil,
// records the blocked work.
func CountBelowWeights(c *Coords, nWeights int, at func(int) []float64, fqs []float64, counts []int, sc *Scratch, ct *Counters) {
	_ = CountBelowWeightsCtx(context.Background(), c, nWeights, at, fqs, counts, sc, ct)
}

// CountBelowWeightsCtx is CountBelowWeights with cooperative cancellation:
// ctx is polled before every blocked sweep, so a canceled caller unwinds
// within one BlockSize chunk.
func CountBelowWeightsCtx(ctx context.Context, c *Coords, nWeights int, at func(int) []float64, fqs []float64, counts []int, sc *Scratch, ct *Counters) error {
	d := c.Dim()
	for base := 0; base < nWeights; base += BlockSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		nb := nWeights - base
		if nb > BlockSize {
			nb = BlockSize
		}
		wb, bf, bc := sc.Block(nb, d)
		for j := 0; j < nb; j++ {
			copy(wb[j*d:(j+1)*d], at(base+j))
			bf[j] = fqs[base+j]
		}
		CountBelowBlock(c, wb, bf, bc)
		copy(counts[base:base+nb], bc)
		ct.Add(nb, c.Len())
	}
	return nil
}
