package kernel

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// refCountBelow is the scalar reference: one vec.Score per (weight, point).
func refCountBelow(pts []vec.Point, w vec.Weight, fq float64) int {
	cnt := 0
	for _, p := range pts {
		if vec.Score(w, p) < fq {
			cnt++
		}
	}
	return cnt
}

func randPoints(rng *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func coordsOf(pts []vec.Point, d int) *Coords {
	var c Coords
	c.Fill(d, len(pts), func(i int) []float64 { return pts[i] })
	return &c
}

// TestCountBelowWeightsMatchesScalar checks the uncapped counts against
// the scalar reference for the specialized dimension, generic ones on
// either side of it, weight counts up to one chunk, and empty inputs.
func TestCountBelowWeightsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{2, 3, 4, 5, 7} {
		for _, n := range []int{0, 1, 3, 64, 257} {
			pts := randPoints(rng, n, d)
			c := coordsOf(pts, d)
			for _, nw := range []int{1, 2, 3, 4, 5, 8, 9, 63, 64} {
				fqs := make([]float64, nw)
				ws := make([]vec.Weight, nw)
				for b := 0; b < nw; b++ {
					ws[b] = sample.RandSimplex(rng, d)
					// Thresholds spread around the score distribution so
					// counts are neither all-0 nor all-n.
					fqs[b] = rng.Float64() * float64(d)
				}
				counts := make([]int, nw)
				CountBelowWeights(c, nw, func(i int) []float64 { return ws[i] }, fqs, counts, nil, nil)
				for b := 0; b < nw; b++ {
					if want := refCountBelow(pts, ws[b], fqs[b]); counts[b] != want {
						t.Fatalf("d=%d n=%d nw=%d b=%d: count %d, scalar %d", d, n, nw, b, counts[b], want)
					}
				}
			}
		}
	}
}

// TestCountBelowCappedWindow checks the capped count over row windows
// against the scalar reference, at the specialized dimension and generic
// ones on either side of it: an uncapped count is exact, a capped one is
// cap+1 and stops at the point that exceeded the cap, and scanned is
// relative to the window's first row.
func TestCountBelowCappedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 3, 4, 5} {
		pts := randPoints(rng, 97, d)
		c := coordsOf(pts, d)
		for _, win := range [][2]int{{0, 0}, {0, 97}, {5, 5}, {13, 60}, {96, 97}} {
			lo, hi := win[0], win[1]
			w := sample.RandSimplex(rng, d)
			fq := rng.Float64()
			want := refCountBelow(pts[lo:hi], w, fq)
			if cnt, scanned := CountBelowCapped(c, w, fq, hi-lo, lo, hi); cnt != want || scanned != hi-lo {
				t.Fatalf("d=%d [%d,%d): uncapped count %d scanned %d, want %d and %d", d, lo, hi, cnt, scanned, want, hi-lo)
			}
			if want == 0 {
				continue
			}
			cnt, scanned := CountBelowCapped(c, w, fq, want-1, lo, hi)
			if cnt != want || refCountBelow(pts[lo:lo+scanned], w, fq) != want || vec.Score(w, pts[lo+scanned-1]) >= fq {
				t.Fatalf("d=%d [%d,%d): capped at %d: count %d after %d rows", d, lo, hi, want-1, cnt, scanned)
			}
		}
	}
}

// TestScoreBlockBitIdentical checks that every blocked score equals
// vec.Score bit for bit (not merely within epsilon): the kernel preserves
// the multiply/add association order the differential suites rely on.
func TestScoreBlockBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 3, 4, 6} {
		n := 101
		pts := randPoints(rng, n, d)
		c := coordsOf(pts, d)
		const nw = 9
		wb := make([]float64, nw*d)
		ws := make([]vec.Weight, nw)
		for b := 0; b < nw; b++ {
			ws[b] = sample.RandSimplex(rng, d)
			copy(wb[b*d:(b+1)*d], ws[b])
		}
		out := make([]float64, nw*n)
		ScoreBlock(c, wb, nw, out)
		for b := 0; b < nw; b++ {
			for i, p := range pts {
				if got, want := out[b*n+i], vec.Score(ws[b], p); got != want {
					t.Fatalf("d=%d b=%d i=%d: score %v, vec.Score %v", d, b, i, got, want)
				}
			}
		}
	}
}

// TestCountBelowWeightsChunking drives the BlockSize-chunking wrapper past
// one block and checks the counters account for every sweep.
func TestCountBelowWeightsChunking(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const d, n, nw = 3, 200, 2*BlockSize + 17
	pts := randPoints(rng, n, d)
	c := coordsOf(pts, d)
	ws := make([]vec.Weight, nw)
	fqs := make([]float64, nw)
	for i := range ws {
		ws[i] = sample.RandSimplex(rng, d)
		fqs[i] = rng.Float64() * 2
	}
	counts := make([]int, nw)
	ct := NewCounters()
	CountBelowWeights(c, nw, func(i int) []float64 { return ws[i] }, fqs, counts, nil, ct)
	for i := range ws {
		if want := refCountBelow(pts, ws[i], fqs[i]); counts[i] != want {
			t.Fatalf("weight %d: count %d, scalar %d", i, counts[i], want)
		}
	}
	snap := ct.Snapshot()
	if snap.Blocks != 3 || snap.Weights != nw || snap.Points != 3*int64(n) {
		t.Fatalf("counters %+v, want 3 blocks / %d weights / %d points", snap, nw, 3*n)
	}
	if (*Counters)(nil).Snapshot() != (CountersSnapshot{}) {
		t.Fatal("nil counters must snapshot to zero")
	}
}

// TestCoordsReuse checks Reset/Append capacity reuse across refills and
// dimension changes.
func TestCoordsReuse(t *testing.T) {
	var c Coords
	c.Fill(3, 10, func(i int) []float64 { return []float64{float64(i), 1, 2} })
	if c.Len() != 10 || c.Dim() != 3 {
		t.Fatalf("fill: len=%d dim=%d", c.Len(), c.Dim())
	}
	c.Fill(2, 4, func(i int) []float64 { return []float64{float64(i), -1} })
	if c.Len() != 4 || c.Dim() != 2 {
		t.Fatalf("refill: len=%d dim=%d", c.Len(), c.Dim())
	}
	for i := 0; i < 4; i++ {
		if c.Col(0)[i] != float64(i) || c.Col(1)[i] != -1 {
			t.Fatalf("refill contents wrong at %d: %v %v", i, c.Col(0)[i], c.Col(1)[i])
		}
	}
}

// TestCoordsPlacedFillAndPrefixView covers the out-of-order fill (Resize +
// Put) and the prefix view: a view sweeps exactly the first n points of its
// source, shares its memory, and costs no allocation once warm.
func TestCoordsPlacedFillAndPrefixView(t *testing.T) {
	var src, dst, view Coords
	src.Fill(3, 8, func(i int) []float64 { return []float64{float64(i), float64(10 * i), float64(100 * i)} })
	dst.Resize(3, 8)
	for i := 0; i < 8; i++ {
		dst.Put(7-i, &src, i) // reversed
	}
	for i := 0; i < 8; i++ {
		if dst.Col(0)[i] != float64(7-i) || dst.Col(2)[i] != float64(100*(7-i)) {
			t.Fatalf("placed fill wrong at %d", i)
		}
	}
	w := []float64{1, 0, 0}
	for n := 0; n <= 8; n++ {
		view.PrefixOf(&dst, n)
		if view.Len() != n || view.Dim() != 3 {
			t.Fatalf("view of %d: len=%d dim=%d", n, view.Len(), view.Dim())
		}
		// Scores are 7, 6, ..., so the first n points hold those above 7-n.
		cnt, scanned := CountBelowCapped(&view, w, 100, 100, 0, view.Len())
		if cnt != n || scanned != n {
			t.Fatalf("view of %d swept %d points, counted %d", n, scanned, cnt)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { view.PrefixOf(&dst, 5) }); allocs != 0 {
		t.Fatalf("PrefixOf allocates %.1f objects when warm", allocs)
	}
	if &view.Col(0)[0] != &dst.Col(0)[0] {
		t.Fatal("a view must alias its source")
	}
}

// TestKernelAllocsPerOp guards the acceptance requirement of zero
// allocations per op in the kernel inner loops: the chunked counts, with
// and without counters and through the ctx entry point, and ScoreBlock
// must not allocate, and neither may refilling a Coords through Reset and
// Append once its columns have grown.
func TestKernelAllocsPerOp(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const d, n, nw = 3, 512, BlockSize
	pts := randPoints(rng, n, d)
	c := coordsOf(pts, d)
	ws := make([]vec.Weight, nw)
	fqs := make([]float64, nw)
	for i := range ws {
		ws[i] = sample.RandSimplex(rng, d)
		fqs[i] = rng.Float64()
	}
	wb := make([]float64, nw*d)
	for b := range ws {
		copy(wb[b*d:(b+1)*d], ws[b])
	}
	counts := make([]int, nw)
	out := make([]float64, nw*n)
	ct := NewCounters()
	at := func(i int) []float64 { return ws[i] }
	ctx := context.Background()

	if allocs := testing.AllocsPerRun(100, func() {
		_ = CountBelowWeightsCtx(ctx, c, nw, at, fqs, counts, nil)
	}); allocs != 0 {
		t.Fatalf("CountBelowWeightsCtx allocates %.1f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ScoreBlock(c, wb, nw, out)
	}); allocs != 0 {
		t.Fatalf("ScoreBlock allocates %.1f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		CountBelowWeights(c, nw, at, fqs, counts, nil, ct)
	}); allocs != 0 {
		t.Fatalf("CountBelowWeights allocates %.1f objects per op, want 0", allocs)
	}
	var fill Coords
	refill := func() {
		fill.Reset(d)
		for _, p := range pts {
			fill.Append(p)
		}
	}
	refill() // grow the columns once
	if allocs := testing.AllocsPerRun(100, refill); allocs != 0 {
		t.Fatalf("a warm Reset+Append refill allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkCountBelow compares the kernel's uncapped counts against the
// equivalent vec.Score scans at the refinement loop's typical shape.
func BenchmarkCountBelow(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	const d, n, nw = 3, 1024, BlockSize
	pts := randPoints(rng, n, d)
	c := coordsOf(pts, d)
	fqs := make([]float64, nw)
	ws := make([]vec.Weight, nw)
	for i := range ws {
		ws[i] = sample.RandSimplex(rng, d)
		fqs[i] = rng.Float64()
	}
	counts := make([]int, nw)
	at := func(i int) []float64 { return ws[i] }
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CountBelowWeights(c, nw, at, fqs, counts, nil, nil)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range ws {
				counts[j] = refCountBelow(pts, ws[j], fqs[j])
			}
		}
	})
}

// TestAppendBelow holds every dimension's compaction to the definition:
// the points below hi somewhere appended in order, each point's class
// byte, and their OR; generic and specialized loops alike, over blocks
// whose coordinates tie with the box's.
func TestAppendBelow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 6; d++ {
		lo, hi := make([]float64, d), make([]float64, d)
		for j := range hi {
			lo[j], hi[j] = 0.25, 0.75
		}
		var c Coords
		c.Reset(d)
		var want [][]float64
		for block := 0; block < 20; block++ {
			m := rng.Intn(9)
			rows := make([]float64, m*d)
			for i := range rows {
				rows[i] = float64(rng.Intn(5)) / 4 // 0, 0.25, ..., 1: ties with the box
			}
			cls := make([]uint8, m)
			or := c.AppendBelow(rows, lo, hi, cls)
			var wantOr uint8
			for k := 0; k < m; k++ {
				p := rows[k*d : (k+1)*d]
				keep, le, ge := false, true, true
				for j, v := range p {
					keep = keep || v < hi[j]
					le = le && v <= hi[j]
					ge = ge && v >= lo[j]
				}
				var cl uint8
				if keep {
					cl = 1
					if le {
						cl |= 2
					}
					if ge {
						cl |= 4
					}
					want = append(want, p)
				}
				if cls[k] != cl {
					t.Fatalf("d=%d block %d point %d: class %d, want %d", d, block, k, cls[k], cl)
				}
				wantOr |= cl
			}
			if or != wantOr {
				t.Fatalf("d=%d block %d: OR %d, want %d", d, block, or, wantOr)
			}
		}
		if c.Len() != len(want) {
			t.Fatalf("d=%d: %d points appended, want %d", d, c.Len(), len(want))
		}
		for i, p := range want {
			for j, v := range p {
				if c.Col(j)[i] != v || len(c.Col(j)) != c.Len() {
					t.Fatalf("d=%d: row %d column %d holds %v, want %v", d, i, j, c.Col(j)[i], v)
				}
			}
		}
	}
}

// BenchmarkAppendBelow is the layer row of the why-not walk's leaf step:
// blocks of 72 uniform points (a d = 3 leaf of the default page) against a
// box that half of them lie below somewhere. At d = 3 it runs the
// specialization ("product") and the generic loop beside it: the
// specialization stays only while it beats the generic loop by 1.1×. The
// wider dimensions have only the generic loop.
func BenchmarkAppendBelow(b *testing.B) {
	const leaves, m = 512, 72
	for _, d := range []int{3, 6, 13} {
		rng := rand.New(rand.NewSource(int64(d)))
		rows := make([]float64, leaves*m*d)
		for i := range rows {
			rows[i] = rng.Float64()
		}
		// hi leaves half the points >= hi everywhere, lo half of that.
		h := 1 - math.Pow(0.5, 1/float64(d))
		lo, hi := make([]float64, d), make([]float64, d)
		for j := range hi {
			lo[j], hi[j] = h/2, h
		}
		cls := make([]uint8, m)
		type arm struct {
			name string
			spec int
		}
		arms := []arm{{"generic", 0}}
		if d == 3 {
			arms = append(arms, arm{"product", 3})
		}
		for _, arm := range arms {
			b.Run(fmt.Sprintf("d=%d/%s", d, arm.name), func(b *testing.B) {
				var c Coords
				for i := 0; i < b.N; i++ {
					c.Reset(d)
					for l := 0; l < leaves; l++ {
						c.appendBelow(rows[l*m*d:(l+1)*m*d], lo, hi, cls, arm.spec)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaves*m), "ns/point")
			})
		}
	}
}
