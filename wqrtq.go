// Package wqrtq answers why-not questions on reverse top-k queries.
//
// It is a from-scratch Go implementation of the WQRTQ framework of
// Gao, Liu, Chen, Zheng and Zhou, "Answering Why-not Questions on Reverse
// Top-k Queries", PVLDB 8(7), 2015, together with every substrate the paper
// relies on: an R*-tree/STR spatial index with page-size-derived fanout,
// branch-and-bound top-k search, monochromatic and bichromatic reverse
// top-k queries, an exact solver for MQP's quadratic program, and
// hyperplane sampling over the weighting simplex.
//
// # Model
//
// A dataset P holds d-dimensional non-negative points; smaller attribute
// values are preferable. A customer preference is a weighting vector w
// (non-negative, summing to 1) scoring a point p as f(w, p) = Σ w[i]·p[i];
// smaller scores rank higher. A product q belongs to the top-k of w when at
// most k-1 points of P score strictly better (ties are won by q). The
// bichromatic reverse top-k of q over a preference set W is every w ∈ W
// whose top-k contains q; the monochromatic variant describes all of
// weighting space.
//
// A why-not question names preferences Wm missing from that result. The
// framework explains the omission (Index.Explain) and refines the query
// with minimum penalty so the missing preferences join the result, three
// ways:
//
//   - Index.ModifyQuery (MQP): change the product q — the exact projection
//     of q onto the safe region.
//   - Index.ModifyPreferences (MWK): change Wm and k — sampling on the
//     rank-boundary hyperplanes.
//   - Index.ModifyAll (MQWK): change q, Wm and k together — query-point
//     sampling plus the other two techniques with R-tree traversal reuse.
//
// Index.WhyNot runs the whole pipeline in one call.
//
// All query methods are safe for concurrent use once the Index is built;
// Insert and Delete require external serialization against queries. To mix
// mutations with live query traffic, wrap the index in an Engine: it
// publishes copy-on-write snapshots (Index.Clone) so mutations never
// disturb in-flight queries, runs at most GOMAXPROCS queries at once, and
// caches results under (snapshot epoch, query) keys. The
// wqrtq command's serve subcommand exposes the engine over JSON/HTTP.
package wqrtq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"wqrtq/internal/cellindex"
	"wqrtq/internal/core"
	"wqrtq/internal/idtable"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/rtree"
	"wqrtq/internal/skyband"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// ErrInvalidArgument tags every request-boundary validation failure —
// non-finite or negative weights and points, dimension mismatches,
// non-positive k, empty weighting-vector sets, out-of-range ids, and bad
// refinement options. Callers (the HTTP layer in particular) distinguish
// bad input (errors.Is(err, ErrInvalidArgument) → 400) from internal
// failures (→ 500) and cancellations (context errors → 503/499).
var ErrInvalidArgument = errors.New("wqrtq: invalid argument")

// invalidArg tags err as a request-validation failure.
func invalidArg(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInvalidArgument, err)
}

// invalidArgf builds a tagged request-validation failure.
func invalidArgf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidArgument, fmt.Sprintf(format, args...))
}

// errPositiveK rejects non-positive k across every query path.
var errPositiveK = fmt.Errorf("%w: k must be positive", ErrInvalidArgument)

// Index is an immutable dataset indexed for reverse top-k and why-not
// processing.
type Index struct {
	tree *rtree.Tree
	// ids is the id → point table (nil for deleted ids), paged and
	// copy-on-write like the tree: a clone shares its pages and a mutation
	// copies the one it writes.
	ids *idtable.Table
	// sky is the snapshot's k-skyband sub-index cache (skyband.go): bands
	// are computed in the background per k and shared by all readers, and
	// each holds its own cell grid (cellindex.go). Clone, Insert and Delete
	// give the next snapshot a cache of its own that carries every band the
	// step provably leaves unchanged, grid included (dynamic.go), so stale
	// bands and grids are unreachable.
	sky *skyband.Cache
	// bg runs the clone family's background band and grid builds
	// (skyband.go), shared across the family like the counters.
	bg *builds
	// kct carries the scoring kernel's cumulative counters, shared
	// across the clone family like the skyband counters (kernel.go).
	kct *kernel.Counters
	// rct records which route ranked the refinement loops' samples,
	// shared across the clone family like kct.
	rct *core.RouteCounters
	// cct carries the cell index's cumulative counters, shared across the
	// clone family like kct.
	cct *cellindex.Counters
	// skyOff and cellOff route queries around a sub-index, onto the path
	// it accelerates: the full tree (and core's nil-Source oracle for the
	// refinements), and the count descent over the band tree (the reverse
	// top-k product path when there is no grid or it declines). The product
	// has one path, so nothing outside this package's tests sets them: they
	// are how the differential suites reach their reference answers. Clone
	// copies them.
	skyOff, cellOff bool
}

// NewIndex validates and bulk-loads a dataset. Every point must be
// non-negative, finite and of equal dimensionality. The points are copied:
// the input is not retained.
func NewIndex(points [][]float64) (*Index, error) {
	if len(points) == 0 {
		return nil, invalidArgf("empty dataset")
	}
	d := len(points[0])
	for i, p := range points {
		if len(p) != d {
			return nil, invalidArgf("point %d has dimension %d, want %d", i, len(p), d)
		}
		if err := vec.ValidatePoint(p); err != nil {
			return nil, invalidArgf("point %d: %v", i, err)
		}
	}
	// The id table is filled from the tree's own copies of the points.
	return newIndexFromParts(rtree.Bulk(points, nil), make([]vec.Point, len(points))), nil
}

// newIndexFromParts wires a tree and the id-indexed points it holds
// (points[id] nil for deleted ids) into an Index with fresh sub-index
// caches and counters: NewIndex's tail, and recovery's whole constructor
// (its parts come from verified durable state, so it skips validation and
// bulk load). The tree holds its own copies of the points, in its leaves'
// blocks; the id table is repointed to share them rather than keep the
// given copies alive beside them.
func newIndexFromParts(tree *rtree.Tree, points []vec.Point) *Index {
	tree.Visit(nil, func(id int32, p vec.Point) { points[id] = p })
	bg := newBuilds()
	return &Index{tree: tree, ids: idtable.FromPoints(points), sky: skyband.NewCache(tree, skyband.NewCounters(bg.spawn)), bg: bg, kct: kernel.NewCounters(), rct: new(core.RouteCounters), cct: cellindex.NewCounters()}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return ix.tree.Len() }

// Dim returns the dimensionality of the indexed points.
func (ix *Index) Dim() int { return ix.tree.Dim() }

// Ranked is one scored point of a query answer.
type Ranked struct {
	ID    int // index into the dataset passed to NewIndex
	Point []float64
	Score float64
}

func toRanked(rs []topk.Result) []Ranked {
	out := make([]Ranked, len(rs))
	for i, r := range rs {
		out[i] = Ranked{ID: int(r.ID), Point: r.Point, Score: r.Score}
	}
	return out
}

// TopK returns the k best points under the weighting vector w, in rank
// order. It is a thin wrapper over TopKCtx with context.Background().
func (ix *Index) TopK(w []float64, k int) ([]Ranked, error) {
	resp, err := ix.TopKCtx(context.Background(), TopKRequest{W: w, K: k})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Rank returns the 1-based rank a query point q would take under w: one
// plus the number of indexed points scoring strictly better. It is a thin
// wrapper over RankCtx with context.Background().
func (ix *Index) Rank(w, q []float64) (int, error) {
	resp, err := ix.RankCtx(context.Background(), RankRequest{W: w, Q: q})
	if err != nil {
		return 0, err
	}
	return resp.Rank, nil
}

// ReverseTopK answers the bichromatic reverse top-k query: the indices into
// W of the weighting vectors whose top-k contains q. It is a thin wrapper
// over ReverseTopKCtx with context.Background().
func (ix *Index) ReverseTopK(W [][]float64, q []float64, k int) ([]int, error) {
	resp, err := ix.ReverseTopKCtx(context.Background(), ReverseTopKRequest{Q: q, K: k, W: W})
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Interval is a closed range [Lo, Hi] of the first weight component λ (the
// second being 1-λ) in a 2-D monochromatic reverse top-k answer.
type Interval struct {
	Lo, Hi float64
}

// ReverseTopKMono2D answers the monochromatic reverse top-k query for 2-D
// datasets exactly: the maximal λ-intervals whose top-k contains q.
func (ix *Index) ReverseTopKMono2D(q []float64, k int) ([]Interval, error) {
	if ix.Dim() != 2 {
		return nil, invalidArgf("monochromatic reverse top-k is defined here for 2-D data")
	}
	if err := ix.checkPoint(q); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, errPositiveK
	}
	live, _ := ix.livePoints()
	ivs := rtopk.Monochromatic2D(live, q, k)
	out := make([]Interval, len(ivs))
	for i, iv := range ivs {
		out[i] = Interval{Lo: iv.Lo, Hi: iv.Hi}
	}
	return out, nil
}

// Explain answers the first aspect of a why-not question: for each
// weighting vector, the points scoring strictly better than q, in rank
// order. When q misses the top-k of Wm[i], Explanations[i] holds the at
// least k points responsible. It is a thin wrapper over ExplainCtx with
// context.Background().
func (ix *Index) Explain(q []float64, Wm [][]float64) ([][]Ranked, error) {
	resp, err := ix.ExplainCtx(context.Background(), ExplainRequest{Q: q, Wm: Wm})
	if err != nil {
		return nil, err
	}
	return resp.Explanations, nil
}

// checkPoint rejects a query point that is dimensionally wrong, negative,
// or non-finite (NaN/±Inf), tagging the error with ErrInvalidArgument.
func (ix *Index) checkPoint(q []float64) error {
	if len(q) != ix.Dim() {
		return invalidArgf("point dimension %d, index dimension %d", len(q), ix.Dim())
	}
	return invalidArg(vec.ValidatePoint(q))
}

// checkWeight rejects a weighting vector that is dimensionally wrong, has
// negative or non-finite components, or does not sum to 1, tagging the
// error with ErrInvalidArgument.
func (ix *Index) checkWeight(w []float64) error {
	if len(w) != ix.Dim() {
		return invalidArgf("weight dimension %d, index dimension %d", len(w), ix.Dim())
	}
	return invalidArg(vec.ValidateWeight(w))
}

func (ix *Index) checkWeights(W [][]float64) ([]vec.Weight, error) {
	if len(W) == 0 {
		return nil, invalidArgf("empty weighting vector set")
	}
	ws := make([]vec.Weight, len(W))
	for i, w := range W {
		if err := ix.checkWeight(w); err != nil {
			return nil, fmt.Errorf("wqrtq: weighting vector %d: %w", i, err)
		}
		ws[i] = w
	}
	return ws, nil
}

// rngFor builds the deterministic random source used by the sampling
// algorithms: core's stream at the seed, 0 standing for 1.
func rngFor(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return core.NewRand(seed)
}

// Neighbor is one result of a nearest-neighbor query.
type Neighbor struct {
	ID       int
	Point    []float64
	Distance float64
}

// Nearest returns the n indexed points closest to p in Euclidean distance,
// ascending — e.g. the competitors nearest a product in attribute space.
func (ix *Index) Nearest(p []float64, n int) ([]Neighbor, error) {
	if err := ix.checkPoint(p); err != nil {
		return nil, err
	}
	ns := ix.tree.Nearest(p, n)
	out := make([]Neighbor, len(ns))
	for i, nb := range ns {
		out[i] = Neighbor{ID: int(nb.ID), Point: nb.Point, Distance: nb.Distance}
	}
	return out, nil
}

// ReverseTopKMonoSample estimates the monochromatic reverse top-k result
// for any dimensionality by Monte Carlo sampling of the weighting simplex:
// it returns sample weighting vectors whose top-k contains q, plus the
// fraction of the simplex they represent. Exact monochromatic algorithms
// exist only in 2-D (use ReverseTopKMono2D there).
func (ix *Index) ReverseTopKMonoSample(q []float64, k, samples int, seed int64) ([][]float64, float64, error) {
	if err := ix.checkPoint(q); err != nil {
		return nil, 0, err
	}
	if k <= 0 {
		return nil, 0, errPositiveK
	}
	ws, frac := rtopk.MonochromaticSample(ix.tree, q, k, samples, rngFor(seed))
	out := make([][]float64, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out, frac, nil
}
