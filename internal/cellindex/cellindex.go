// Package cellindex implements the materialized reverse-top-k cell index
// (after Chester et al., "Indexing Reverse Top-k Queries"): a per-(band, k)
// grid over the weighting simplex whose cells carry
// precomputed candidate top-k supersets, so a bichromatic reverse top-k
// evaluates each weighting vector against a tiny cell-local candidate list
// instead of sweeping the whole k-skyband.
//
// # Cells
//
// The simplex {w : w_j >= 0, Σw_j = 1} is gridded at power-of-two
// resolution R over its first d-1 coordinates: cell (c_0, …, c_{d-2})
// covers w_j ∈ [c_j/R, (c_j+1)/R] for j < d-1, and the last coordinate's
// bounds derive from the simplex constraint (lo_last = 1 - Σhi_j - slack,
// hi_last = 1 - Σlo_j + slack, where the slack absorbs the weight-sum
// validation tolerance and the float rounding of w_last itself). Every
// lookup re-checks the queried weight against the stored per-coordinate
// bounds — point location never trusts the floor arithmetic alone, so a
// weight that rounds across a cell edge falls back to the legacy path
// instead of being answered from the wrong cell.
//
// # Candidate supersets — the float-airtight exclusion rule
//
// For a cell with per-coordinate bounds [lo, hi] and any w inside them,
// every point p (coordinates non-negative by NewIndex validation)
// satisfies, in pure float64 arithmetic,
//
//	fl(f(lo, p)) <= fl(f(w, p)) <= fl(f(hi, p))
//
// because each product w_j·p_j is bracketed termwise (float multiplication
// by a non-negative p_j is monotone in w_j) and vec.Score's left-to-right
// float addition is monotone in each addend. No real-arithmetic or
// convex-hull reasoning is needed — the bracketing holds for the floats
// the kernel actually computes.
//
// A basis point p is therefore excluded from a cell's candidate list iff
// at least k basis points p' satisfy fl(f(hi, p')) < fl(f(lo, p)): each
// such p' strictly beats p at every float w in the cell
// (fl(f(w, p')) <= fl(f(hi, p')) < fl(f(lo, p)) <= fl(f(w, p))), so p can
// never be in any top-k there, let alone decide q's membership. Duplicate
// points never exclude each other — their equal scores fail the strict
// test.
//
// # Count preservation
//
// The membership test "fewer than k candidates score strictly below
// f(w, q)" decides exactly as the basis would, for every w inside the
// cell's bounds: if the basis count is below k, every basis beater of q
// has fewer than k beaters of its own (strict < on fl scores is
// transitive), so none is excluded and the candidate count equals the
// basis count; if the basis count is at least k, the k smallest-scoring
// basis beaters of q are themselves unexcluded (a point with fewer than k
// everywhere-beaters survives) and keep the candidate count at >= k. The
// basis is the k-skyband band of the snapshot (itself count-preserving
// against the full dataset — see internal/skyband), so the composed test
// is bit-identical to RTA over the full tree. Candidates are stored
// sorted by their hi-corner score, so the capped counting scan meets the
// cell's everywhere-beaters first and exits after ~k points for
// non-member weights.
//
// # Lifecycle
//
// A grid is a pure function of its basis band and k (the dimensionality
// is the band's), so it is valid exactly as long as that band is. It
// therefore lives on the band: it is built once in the band's derived-
// state slot (skyband.Band.Derived), shared by every reader. Ready, the
// request path's lookup, never waits: a missing grid gets one background
// build, and the lookup answers nil until it lands. A band the
// skyband layer carries to the next snapshot carries its grid
// pointer-identical, a build in flight included; a band it drops takes the
// grid with it, to be rebuilt over the rebuilt band. Grids per snapshot are
// bounded by the skyband cache's bands, and each grid by maxCandidates and
// maxBaseCells. Pass-through bands (full tree, shared across k) carry no
// grid.
package cellindex

import (
	"context"
	"math"
	"sort"
	"sync/atomic"

	"wqrtq/internal/kernel"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

// MaxBasis is the largest basis (k-skyband band) size a grid is built
// over: beyond it the per-cell supersets stop being "tiny" and the build
// cost stops amortizing, so Build declines and the caller counts each
// vector by a descent of the band tree instead.
const MaxBasis = 4096

// maxCandidates bounds the total candidate storage of one grid. A build
// that would exceed it (large k relative to the basis makes every cell
// hold nearly the whole basis) aborts and Build returns nil — the
// fallback paths answer identically, just without the cell win.
const maxCandidates = 1 << 20

// boundSlack widens the derived last-coordinate bounds of every cell. It
// absorbs the |Σw - 1| <= 1e-9 tolerance of vec.ValidateWeight plus the
// float rounding of the bound arithmetic itself; correctness never
// depends on its size (lookups re-check the stored bounds), only the
// fallback rate does.
const boundSlack = 1e-6

// resolutionFor picks the grid resolution per dimensionality: fine enough
// that per-cell supersets shrink to O(k) on benchmark-sized bands, coarse
// enough that the cell count (res^(d-1), simplex-clipped) stays small.
func resolutionFor(d int) int {
	switch d {
	case 2:
		return 128
	case 3:
		return 64
	default:
		return 16
	}
}

// maxBaseCells is the cell budget of one grid, counted as its res^(d-1)
// base cells before simplex clipping. resolutionFor spends exactly the
// budget at d = 3 (64²) and d = 4 (16³); at its floor of 16 per axis a
// d = 5 grid would be 16⁴ = 65 536 cells and a d = 6 one — Household's
// dimensionality — 16⁵ ≈ 1M, each with its bounds and a candidate row. The
// budget is why those datasets have no grid, and reverse top-k on them goes
// straight to the per-vector count descent.
const maxBaseCells = 4096

// baseCells returns the base cell count of a grid over d-dimensional data,
// or 0 when there is no such grid: d < 2, or a count over maxBaseCells.
func baseCells(d int) int {
	if d < 2 {
		return 0
	}
	res, n := resolutionFor(d), 1
	for j := 0; j < d-1; j++ {
		if n *= res; n > maxBaseCells {
			return 0
		}
	}
	return n
}

// Grid is the materialized cell index of one (basis band, k). Grids are
// immutable after construction and safe for concurrent use.
type Grid struct {
	dim, res  int
	basisSize int
	basis     *kernel.Coords // the flattened band, shared with the blocked kernel
	nBase     int            // res^(dim-1) base cells over the first dim-1 coordinates
	// bounds holds per base cell 2*dim floats, interleaved per coordinate:
	// lo_0, hi_0, lo_1, hi_1, …, lo_{dim-1}, hi_{dim-1}. The interleaving
	// lets locate's bounds re-check walk one slice in constant-stride
	// lockstep (b[0], b[1], b = b[2:]), which the prove pass verifies
	// bounds-check-free. Unbuilt (simplex-unreachable) cells keep zero
	// bounds, which no valid weight can satisfy.
	bounds []float64
	// cellOff[c] .. cellOff[c+1] delimit cell c's candidate rows in rows.
	// Built cells are never empty (at least min(basisSize, k) candidates
	// survive exclusion), so an empty range marks an unreachable cell.
	cellOff []int32
	// rows holds the concatenated per-cell candidate segments, each
	// segment sorted by hi-corner score ascending.
	rows  kernel.Coords
	cells int // built (non-empty) cells
}

// Dim returns the dimensionality.
func (g *Grid) Dim() int { return g.dim }

// BasisSize returns the size of the basis candidate set (the k-skyband
// band the grid was built over).
func (g *Grid) BasisSize() int { return g.basisSize }

// Basis returns the flattened basis coordinates (band visit order, shared
// with the blocked kernel paths).
func (g *Grid) Basis() *kernel.Coords { return g.basis }

// Cells iterates the built cells in flat index order: lo and hi are the
// cell's per-coordinate bounds (len dim, de-interleaved from grid storage
// into scratch reused across calls) and cand its candidate coordinate
// columns (dim slices of equal length, hi-corner-score order). All slices
// are valid only during the callback.
func (g *Grid) Cells(fn func(lo, hi []float64, cand [][]float64)) {
	cand := make([][]float64, g.dim)
	lo := make([]float64, g.dim)
	hi := make([]float64, g.dim)
	for c := 0; c < g.nBase; c++ {
		s, e := g.cellOff[c], g.cellOff[c+1]
		if s == e {
			continue
		}
		for j := 0; j < g.dim; j++ {
			cand[j] = g.rows.Col(j)[s:e]
		}
		b := g.bounds[c*2*g.dim : (c+1)*2*g.dim]
		for j := 0; j < g.dim; j++ {
			lo[j], hi[j] = b[2*j], b[2*j+1]
		}
		fn(lo, hi, cand)
	}
}

// locate returns the flat cell index containing w, or -1 when w falls
// outside its floor-located cell's stored bounds (float rounding across a
// cell edge, an invalid weight, an unreachable cell) — the caller must
// fall back to a legacy path, which answers identically.
//
//wqrtq:contract noescape(g,w) nobce noalloc
func (g *Grid) locate(w []float64) int {
	d := g.dim
	if d < 1 || len(w) < d {
		return -1
	}
	w = w[:d]
	res := g.res
	rf := float64(res)
	idx, stride := 0, 1
	for _, wj := range w[:d-1] {
		c := int(wj * rf)
		if c < 0 {
			c = 0
		} else if c >= res {
			c = res - 1
		}
		idx += c * stride
		stride *= res
	}
	// Two-step slice: re-anchor the offset pair at idx and length-check the
	// remainder, the one shape the prove pass verifies for an idx/idx+1
	// pair load. idx >= 0 was established digit by digit but the proof does
	// not survive the accumulation, so the guard re-checks it.
	off := g.cellOff
	if idx < 0 || idx >= len(off) {
		return -1
	}
	o := off[idx:]
	if len(o) < 2 {
		return -1
	}
	if o[1] == o[0] {
		return -1
	}
	bo := idx * 2 * d
	bs := g.bounds
	if bo < 0 || bo > len(bs) {
		return -1
	}
	b := bs[bo:]
	for _, wj := range w {
		if len(b) < 2 || wj < b[0] || wj > b[1] {
			return -1
		}
		b = b[2:]
	}
	return idx
}

// CountBelowCapped counts the candidates of w's cell scoring strictly
// below fq, giving up once the count exceeds cap (kernel.CountBelowCapped
// over the cell's rows: the count is exact when <= cap and cap+1
// otherwise). scanned reports the candidate rows examined; ok is false
// when w could not be located, in which case the caller must use a
// fallback path. The scan allocates nothing and uses vec.Score's
// arithmetic order, so an uncapped count is bit-identical to a scalar scan
// of the cell.
//
//wqrtq:contract noescape(g,w) nobce noalloc
func (g *Grid) CountBelowCapped(w []float64, fq float64, cap int) (count, scanned int, ok bool) {
	ci := g.locate(w)
	off := g.cellOff
	// locate guarantees the offset pair exists on success, but the proof
	// does not survive the call boundary, so the window fetch re-guards
	// with the same two-step slice shape locate uses.
	if ci < 0 || ci >= len(off) {
		return 0, 0, false
	}
	o := off[ci:]
	if len(o) < 2 {
		return 0, 0, false
	}
	count, scanned = kernel.CountBelowCapped(&g.rows, w, fq, cap, int(o[0]), int(o[1]))
	return count, scanned, true
}

// ReverseTopK answers the bichromatic reverse top-k over the grid: result
// holds the ascending indices of the weights whose capped cell count
// stays below k, scanned totals the candidate rows examined (for the
// kernel work counters), and ok is false when any weight failed point
// location — the caller must then re-run the whole query on a legacy
// path, keeping the answer deterministic. ctx is polled periodically.
func (g *Grid) ReverseTopK(ctx context.Context, W []vec.Weight, q vec.Point, k int) (result []int, scanned int, ok bool, err error) {
	for wi, w := range W {
		if wi&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, scanned, false, err
			}
		}
		fq := vec.Score(w, q)
		cnt, sc, located := g.CountBelowCapped(w, fq, k-1)
		if !located {
			return nil, scanned, false, nil
		}
		scanned += sc
		if cnt < k {
			result = append(result, wi)
		}
	}
	return result, scanned, true, nil
}

// Build constructs the grid of parameter k over basis, or returns nil when
// the configuration is ineligible (a cell count over budget, basis empty or
// beyond MaxBasis, or candidate storage that would blow past
// maxCandidates). The basis is a count-preserving candidate set for k: a
// k-skyband band, or a whole dataset. Its per-cell scratch is sized once
// per build; TestCellIndexAllocsPerOp bounds what it allocates per built
// cell.
func Build(basis *kernel.Coords, k int) *Grid {
	dim, m := basis.Dim(), basis.Len()
	nBase := baseCells(dim)
	if nBase == 0 || m == 0 || m > MaxBasis {
		return nil
	}
	res := resolutionFor(dim)
	g := &Grid{
		dim: dim, res: res,
		basisSize: m,
		basis:     basis,
		nBase:     nBase,
		bounds:    make([]float64, nBase*2*dim),
		cellOff:   make([]int32, nBase+1),
	}
	g.rows.Reset(dim)
	scores := make([]float64, 2*m) // lo-corner scores then hi-corner scores
	hiSel := make([]float64, m)
	order := make([]int, 0, m)
	wb := make([]float64, 2*dim)
	lo, hi := wb[:dim], wb[dim:]
	pt := make([]float64, dim)
	for c := 0; c < nBase; c++ {
		g.cellOff[c+1] = g.cellOff[c]
		// Decode the cell digits and derive the per-coordinate bounds.
		digitSum, rem := 0, c
		sumLo, sumHi := 0.0, 0.0
		for j := 0; j < dim-1; j++ {
			cj := rem % res
			rem /= res
			digitSum += cj
			lo[j] = float64(cj) / float64(res)
			hi[j] = float64(cj+1) / float64(res)
			sumLo += lo[j]
			sumHi += hi[j]
		}
		if digitSum > res {
			continue // cell lies entirely outside the simplex
		}
		lo[dim-1] = 1 - sumHi - boundSlack
		if lo[dim-1] < 0 {
			lo[dim-1] = 0
		}
		hi[dim-1] = 1 - sumLo + boundSlack
		if hi[dim-1] < 0 {
			continue
		}
		// Score the basis at both corners in one blocked sweep, then apply
		// the exclusion rule: p is out iff >= k points' hi-corner scores
		// sit strictly below p's lo-corner score — iff the k-th smallest
		// hi-corner score does, so one selection replaces a sort and a
		// search per point.
		kernel.ScoreBlock(basis, wb, 2, scores)
		lows, highs := scores[:m], scores[m:]
		kth := math.Inf(1)
		if k <= m {
			copy(hiSel, highs)
			kth = kthSmallest(hiSel, k)
		}
		order = order[:0]
		for i := 0; i < m; i++ {
			if !(kth < lows[i]) {
				order = append(order, i)
			}
		}
		sort.Slice(order, func(a, b int) bool { return highs[order[a]] < highs[order[b]] })
		if g.rows.Len()+len(order) > maxCandidates {
			return nil
		}
		for _, i := range order {
			for j := range pt {
				pt[j] = basis.Col(j)[i]
			}
			g.rows.Append(pt)
		}
		g.cellOff[c+1] = g.cellOff[c] + int32(len(order))
		// wb keeps lo and hi contiguous for the two-weight ScoreBlock
		// sweep; grid storage interleaves them per coordinate (see the
		// bounds field) for locate's lockstep re-check.
		dst := g.bounds[c*2*dim : (c+1)*2*dim]
		for j := 0; j < dim; j++ {
			dst[2*j], dst[2*j+1] = lo[j], hi[j]
		}
		g.cells++
	}
	return g
}

// kthSmallest returns the k-th smallest of v, 1 <= k <= len(v), by
// quickselect; it reorders v. Values that compare equal (-0 and +0) are
// interchangeable to every caller, which compares the result with <.
func kthSmallest(v []float64, k int) float64 {
	lo, hi, t := 0, len(v)-1, k-1
	for lo < hi {
		p := v[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for v[i] < p {
				i++
			}
			for p < v[j] {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case t <= j:
			hi = j
		case t >= i:
			lo = i
		default:
			return v[t]
		}
	}
	return v[t]
}

// Of returns the grid of band b, built on first use in the band's derived-
// state slot — or waited for, when a Ready started it — and shared by every
// reader for as long as the band lives, or nil when b has none: a
// dimensionality over the cell budget (rejected before anything is built),
// a pass-through band, or a declined build (see Build). It is for callers
// the grid is the only engine of (the exact monochromatic query). ct
// counts the builds and, at an eligible dimensionality, every nil as a
// fallback.
func Of(b *skyband.Band, ct *Counters) *Grid {
	if baseCells(b.Tree().Dim()) == 0 {
		return nil
	}
	var g *Grid
	if !b.Full() {
		g, _ = b.Derived(ct.build).(*Grid)
	}
	if g == nil {
		ct.CountFallback()
	}
	return g
}

// Ready is Of for the request path, which never waits: it returns the
// grid of b once built, and otherwise nil, having started one background
// build unless one is in flight. Callers then use the per-vector count
// descent, which answers identically; ct counts as Of does.
func Ready(b *skyband.Band, ct *Counters) *Grid {
	if baseCells(b.Tree().Dim()) == 0 {
		return nil
	}
	var g *Grid
	if !b.Full() {
		v, _ := b.TryDerived(ct.build)
		g, _ = v.(*Grid)
	}
	if g == nil {
		ct.CountFallback()
	}
	return g
}

// build is the derived-state build of a band's grid, counted.
func (c *Counters) build(b *skyband.Band) any {
	g := build(b)
	if g != nil {
		c.builds.Add(1)
	}
	return g
}

// build is Build over band b, checking its size before flattening it.
func build(b *skyband.Band) *Grid {
	if b.Size() > MaxBasis {
		return nil
	}
	return Build(b.Coords(), b.K())
}

// Cache, NewCache and Grid are kept only for bench/replay.go, which times
// one grid build through them, until ROADMAP item 6 rewrites that harness.
// Grid builds afresh on every call, uncached, so the harness times a
// build, and returns nil where Of would; dim and ct are ignored.
type Cache struct{ sky *skyband.Cache }

func NewCache(sky *skyband.Cache, dim int, ct *Counters) *Cache { return &Cache{sky: sky} }

func (c *Cache) Grid(k int) *Grid {
	b := c.sky.Band(k)
	if b.Full() || baseCells(b.Tree().Dim()) == 0 {
		return nil
	}
	return build(b)
}

// Counters accumulates cell-index activity across snapshots. One Counters
// is shared by every snapshot in a clone family, mirroring the skyband
// counters.
type Counters struct {
	builds    atomic.Int64
	fallbacks atomic.Int64
	lookups   atomic.Int64
}

// NewCounters creates a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// CountFallback records one query that could not be answered from a grid
// (no grid for its band, failed point location) and ran a legacy path.
func (c *Counters) CountFallback() {
	if c != nil {
		c.fallbacks.Add(1)
	}
}

// CountLookups records n weighting vectors answered by cell lookups.
func (c *Counters) CountLookups(n int) {
	if c != nil {
		c.lookups.Add(int64(n))
	}
}

// Stats is a point-in-time view of the cell index: the grids one
// snapshot's bands hold, and the counters of its clone family.
type Stats struct {
	// Grids, Cells and Candidates describe the grids the snapshot's bands
	// hold (built on it or carried over with their band): how many there
	// are, their total built cells, and the candidate rows those cells
	// store.
	Grids      int `json:"grids"`
	Cells      int `json:"cells"`
	Candidates int `json:"candidates"`
	// Builds counts grid constructions over the family's whole lifetime
	// (grid reads count as skyband hits). Lookups counts weighting vectors
	// answered by cell lookups; Fallbacks counts queries that reached the
	// cell path but fell back to the count descent (no grid for the band,
	// none yet, or a failed point location).
	Builds    int64 `json:"builds"`
	Fallbacks int64 `json:"fallbacks"`
	Lookups   int64 `json:"lookups"`
	// Pending counts the grid builds in flight across the family.
	Pending int64 `json:"pending"`
}

// Stats reports the counters and the grids held by the bands of sky.
func (c *Counters) Stats(sky *skyband.Cache) Stats {
	s := Stats{Builds: c.builds.Load(), Fallbacks: c.fallbacks.Load(), Lookups: c.lookups.Load(), Pending: sky.Counters().DerivedPending()}
	sky.EachDerived(func(v any) {
		if g, _ := v.(*Grid); g != nil {
			s.Grids++
			s.Cells += g.cells
			s.Candidates += g.rows.Len()
		}
	})
	return s
}
