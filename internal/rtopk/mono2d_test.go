package rtopk

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"wqrtq/internal/vec"
)

// checkMono2D validates a Monochromatic2D answer structurally and against
// MonoRank: intervals are sorted, disjoint and fully merged (no two
// adjacent intervals share an endpoint — the merge path must have joined
// them), every endpoint is a breakpoint or a domain boundary, membership
// at every interval midpoint implies rank <= k, and the midpoint of every
// segment between consecutive breakpoints agrees exactly with the
// rank-based membership predicate.
//
// The implementation decides each segment by evaluating the strict-beat
// count at the segment midpoint with MonoRank's own arithmetic, so the
// segment-midpoint equivalence below holds by construction and is asserted
// without the endpoint-instability carve-outs this suite used to document
// (the old event sweep derived membership analytically, and re-evaluating
// a rounded breakpoint could break the intended tie either way; midpoints
// of non-degenerate segments are the stable evaluation points). The only
// remaining skip is the fully degenerate case where two breakpoints are so
// close that their float64 midpoint collides with one of them — there is
// no representable λ strictly between them to test.
func checkMono2D(t *testing.T, label string, points []vec.Point, q vec.Point, k int) {
	t.Helper()
	ivs := Monochromatic2D(points, q, k)
	lams := []float64{0, 1}
	for _, p := range points {
		a := p[0] - q[0]
		b := p[1] - q[1]
		if a != b {
			if lam := b / (b - a); lam > 0 && lam < 1 {
				lams = append(lams, lam)
			}
		}
	}
	sort.Float64s(lams)
	isBound := func(x float64) bool {
		for _, lam := range lams {
			if lam == x {
				return true
			}
		}
		return false
	}
	for i, iv := range ivs {
		if !(iv.Lo < iv.Hi) {
			t.Fatalf("%s: interval %d [%v, %v] has empty interior", label, i, iv.Lo, iv.Hi)
		}
		if iv.Lo < 0 || iv.Hi > 1 {
			t.Fatalf("%s: interval %d [%v, %v] outside [0, 1]", label, i, iv.Lo, iv.Hi)
		}
		if !isBound(iv.Lo) || !isBound(iv.Hi) {
			t.Fatalf("%s: interval %d [%v, %v] endpoint is not a breakpoint or domain bound",
				label, i, iv.Lo, iv.Hi)
		}
		if i > 0 {
			if ivs[i-1].Hi >= iv.Lo {
				t.Fatalf("%s: intervals %d and %d overlap or touch (%v >= %v) — adjacent "+
					"intervals must merge", label, i-1, i, ivs[i-1].Hi, iv.Lo)
			}
		}
		mid := (iv.Lo + iv.Hi) / 2
		if r := MonoRank(points, q, mid); r > k {
			t.Fatalf("%s: λ=%v inside interval %d has rank %d > k=%d", label, mid, i, r, k)
		}
	}
	// Exhaustive segment cross-check: rank-based membership at each
	// segment midpoint must equal interval membership, with no tolerance.
	inAnswer := func(lam float64) bool {
		for _, iv := range ivs {
			if iv.Lo <= lam && lam <= iv.Hi {
				return true
			}
		}
		return false
	}
	for i := 0; i+1 < len(lams); i++ {
		if lams[i] == lams[i+1] {
			continue
		}
		mid := (lams[i] + lams[i+1]) / 2
		if mid <= lams[i] || mid >= lams[i+1] {
			continue // no representable λ strictly inside this segment
		}
		want := MonoRank(points, q, mid) <= k
		if got := inAnswer(mid); got != want {
			t.Fatalf("%s: λ=%v membership %v, rank-based %v", label, mid, got, want)
		}
	}
}

// TestMono2DDuplicateBreakpoints pins the duplicate-λ event handling: all
// coverage deltas at one breakpoint must apply before the sweep flushes, or
// intervals gain or lose endpoints. Duplicated points produce exactly
// coincident breakpoints, and symmetric pairs produce breakpoints shared
// between an increasing and a decreasing side.
func TestMono2DDuplicateBreakpoints(t *testing.T) {
	q := vec.Point{3, 3}
	points := []vec.Point{
		// Two identical points tying q at λ = 0.5 from the "beats below"
		// side, plus the mirrored pair tying at the same λ from the other.
		{2, 4}, {2, 4},
		{4, 2}, {4, 2},
		// A dominated point, irrelevant everywhere.
		{5, 5},
		// A dominating point, relevant everywhere.
		{1, 1},
	}
	for k := 1; k <= 6; k++ {
		checkMono2D(t, "duplicate-breakpoints", points, q, k)
	}
}

// TestMono2DAdjacentMerge forces the flush-merge path (out[n-1].Hi == lo):
// a point whose hyperplane only touches the answer at one λ splits the
// sweep segments without changing membership, so the reported intervals
// must still come out joined.
func TestMono2DAdjacentMerge(t *testing.T) {
	q := vec.Point{2, 2}
	// p ties q at λ = 0.5 and beats it on one side only; with k = 2 the
	// answer is the whole segment and must be reported as one interval,
	// not two halves meeting at 0.5.
	points := []vec.Point{{1, 3}, {6, 6}}
	ivs := Monochromatic2D(points, q, 2)
	if len(ivs) != 1 || ivs[0].Lo != 0 || ivs[0].Hi != 1 {
		t.Fatalf("expected the merged full segment, got %v", ivs)
	}
	checkMono2D(t, "adjacent-merge", points, q, 1)
}

// TestMono2DRandomizedGrid runs the structural and MonoRank cross-checks
// over randomized grid-quantized datasets, where coincident breakpoints
// and exact ties are common, for a spread of k.
func TestMono2DRandomizedGrid(t *testing.T) {
	for caseIdx := 0; caseIdx < 60; caseIdx++ {
		rng := rand.New(rand.NewSource(int64(2000 + caseIdx)))
		n := 1 + rng.Intn(25)
		points := make([]vec.Point, n)
		for i := range points {
			// Small integer grid: duplicate points and duplicate λ events
			// appear with high probability.
			points[i] = vec.Point{float64(rng.Intn(6)), float64(rng.Intn(6))}
		}
		q := vec.Point{float64(1 + rng.Intn(4)), float64(1 + rng.Intn(4))}
		k := 1 + rng.Intn(5)
		checkMono2D(t, "grid", points, q, k)
	}
}

// TestMono2DRandomizedContinuous mirrors the grid cases on continuous
// coordinates, where every breakpoint is distinct.
func TestMono2DRandomizedContinuous(t *testing.T) {
	for caseIdx := 0; caseIdx < 40; caseIdx++ {
		rng := rand.New(rand.NewSource(int64(3000 + caseIdx)))
		n := 1 + rng.Intn(40)
		points := make([]vec.Point, n)
		for i := range points {
			points[i] = vec.Point{rng.Float64() * 4, rng.Float64() * 4}
		}
		q := vec.Point{rng.Float64()*2 + 1, rng.Float64()*2 + 1}
		k := 1 + rng.Intn(6)
		checkMono2D(t, "continuous", points, q, k)
	}
}

// TestMono2DCapBoundary pins the segment test at its cap: each segment's
// count stops at k-1, so a segment with exactly k-1 strict beaters must be
// a member and its neighbour with exactly k must not. k-1 points beat q
// everywhere, p1 beats it only for λ > 1/2 and p2 only for λ < 1/3, so the
// segments [0, 1/3], [1/3, 1/2] and [1/2, 1] have k, k-1 and k beaters.
func TestMono2DCapBoundary(t *testing.T) {
	q := vec.Point{2, 2}
	p1, p2 := vec.Point{1, 3}, vec.Point{3, 1.5}
	breakAt := func(p vec.Point) float64 {
		a, b := p[0]-q[0], p[1]-q[1]
		return b / (b - a)
	}
	lo, hi := breakAt(p2), breakAt(p1)
	for k := 1; k <= 5; k++ {
		points := []vec.Point{p1, {5, 5}, p2}
		for range k - 1 {
			points = append(points, vec.Point{1, 1})
		}
		bounds := []float64{0, lo, hi, 1}
		wantRank := []int{k + 1, k, k + 1}
		for i, want := range wantRank {
			mid := (bounds[i] + bounds[i+1]) / 2
			if r := MonoRank(points, q, mid); r != want {
				t.Fatalf("k=%d: rank %d at λ=%v, want %d", k, r, mid, want)
			}
		}
		ivs := Monochromatic2D(points, q, k)
		if len(ivs) != 1 || ivs[0] != (Interval{Lo: lo, Hi: hi}) {
			t.Fatalf("k=%d: %v, want [{%v %v}]", k, ivs, lo, hi)
		}
		checkMono2D(t, fmt.Sprintf("cap-boundary k=%d", k), points, q, k)
	}
}

// BenchmarkMonochromatic2D times the exact 2-D monochromatic reverse
// top-k over uniform points at k = 10. q sits at the left edge with a
// middling y, so about half the points cross it (a segment each), q is in
// the top-k only for λ near 1, and most segments are decided by a count
// that stops at its k-th beater.
func BenchmarkMonochromatic2D(b *testing.B) {
	const k = 10
	q := vec.Point{0.0005, 0.5}
	for _, n := range []int{2000, 10000} {
		rng := rand.New(rand.NewSource(int64(n)))
		points := make([]vec.Point, n)
		for i := range points {
			points[i] = vec.Point{rng.Float64(), rng.Float64()}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Monochromatic2D(points, q, k)
			}
		})
	}
}
