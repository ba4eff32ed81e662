// Package skyband implements the epoch-cached k-skyband sub-index that
// accelerates every reverse-top-k-shaped evaluation.
//
// Only points dominated by fewer than k others (the k-skyband,
// dominance.KSkyband) can ever appear in a top-k result under a monotone
// linear scoring function; the k smallest scores of the dataset — and any
// strict-beat count below k — are always achieved within that set. A Band
// therefore bulk-loads the skyband points of one snapshot into a compact
// R-tree, and branch-and-bound top-k, RTA reverse top-k and capped rank
// counting run against it with results bit-identical to the full tree
// (every score is computed by vec.Score either way; only the candidate set
// shrinks, and the shrinkage provably never removes an answer).
//
// A Cache owns the bands of one snapshot. Bands are computed lazily, once
// per (snapshot, k), and shared by all readers of that snapshot; they are
// never mutated. Invalidation is the copy-on-write epoch bump: cloning an
// index creates a fresh empty Cache for the clone (and in-place mutation
// resets the mutated side's Cache), so a stale band is unreachable by
// construction. Cumulative counters survive across epochs through the
// shared Counters, which the serving engine surfaces in EngineStats.
package skyband

import (
	"context"
	"sync"
	"sync/atomic"

	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// DefaultRankBand is the band parameter backing rank queries, which carry
// no k of their own: a rank query is answered from the DefaultRankBand-
// skyband whenever its strict-beat count stays below this bound, and falls
// back to the full tree otherwise.
const DefaultRankBand = 32

// maxBands caps how many distinct k values one snapshot caches bands for;
// requests beyond the cap fall back to the full tree rather than grow the
// cache without bound.
const maxBands = 16

// fullBandFactor skips band construction when k is so large relative to
// the dataset that the skyband cannot prune meaningfully: for
// fullBandFactor*k >= n the full tree is served as a pass-through band.
const fullBandFactor = 4

// Counters accumulates band-cache activity across snapshots. One Counters
// is shared by every Cache in a clone family, so the serving engine
// reports cumulative numbers over the index's whole lifetime, not just the
// current epoch.
type Counters struct {
	builds    atomic.Int64
	hits      atomic.Int64
	fallbacks atomic.Int64
}

// NewCounters creates a zeroed counter set.
func NewCounters() *Counters { return &Counters{} }

// CountFallback records one rank query that exceeded its band bound and
// fell back to the full tree.
func (c *Counters) CountFallback() {
	if c != nil {
		c.fallbacks.Add(1)
	}
}

// CountersSnapshot is a point-in-time copy of the cumulative counters.
type CountersSnapshot struct {
	Builds    int64 `json:"builds"`
	Hits      int64 `json:"hits"`
	Fallbacks int64 `json:"fallbacks"`
}

// Snapshot copies the counters.
func (c *Counters) Snapshot() CountersSnapshot {
	if c == nil {
		return CountersSnapshot{}
	}
	return CountersSnapshot{
		Builds:    c.builds.Load(),
		Hits:      c.hits.Load(),
		Fallbacks: c.fallbacks.Load(),
	}
}

// Band is the k-skyband of one snapshot, bulk-loaded into its own R-tree.
// Bands are immutable and safe for concurrent use.
type Band struct {
	k    int
	tree *rtree.Tree
	size int
	full bool // the band is the whole dataset (pass-through, no separate tree)
	// counts holds each member's exact dominance count indexed by record
	// id (-1 for non-members, whose count is >= k). nil for pass-through
	// bands.
	counts []int32
	// coords is the lazily built column-major image of the band points for
	// the blocked scoring kernel; one sync.Once-guarded flatten shared by
	// every reader of the band. coordsReady fronts the Once with one atomic
	// load so the steady-state Coords call stays inlinable (sync.Once.Do
	// alone costs more than the inlining budget); the Store inside the Do
	// publishes the flatten to every reader that observes true.
	coordsOnce  sync.Once
	coordsReady atomic.Bool
	coords      kernel.Coords
}

// K returns the band parameter.
func (b *Band) K() int { return b.k }

// Tree returns the R-tree over the band points (the snapshot's full tree
// for a pass-through band). Record ids are the original dataset ids.
func (b *Band) Tree() *rtree.Tree { return b.tree }

// Size returns the number of points in the band.
func (b *Band) Size() int { return b.size }

// Full reports a pass-through band: k was too large for the skyband to
// prune, so the band tree is the snapshot's full tree.
func (b *Band) Full() bool { return b.full }

// Coords returns the band's flattened column-major coordinates for the
// blocked scoring kernel, built lazily on first use and shared by all
// readers (bands are immutable, so the image never goes stale). The point
// order is the band tree's visit order; blocked counting is order-
// independent, so consumers see the same counts as a tree evaluation.
// Callers should bound the band size themselves before flattening a
// pass-through band, whose image is the whole dataset.
//
//wqrtq:hotpath
//wqrtq:contract inline noalloc
func (b *Band) Coords() *kernel.Coords {
	if b.coordsReady.Load() {
		return &b.coords
	}
	return b.coordsSlow()
}

// coordsSlow is Coords' first-use path: one once-guarded flatten, after
// which the ready flag routes every reader through the inlined fast path.
func (b *Band) coordsSlow() *kernel.Coords {
	b.coordsOnce.Do(func() {
		b.coords.Reset(b.tree.Dim())
		b.tree.Visit(
			func(rtree.Rect, *rtree.Node) bool { return true },
			func(_ int32, p vec.Point) { b.coords.Append(p) },
		)
		b.coordsReady.Store(true)
	})
	return &b.coords
}

// Keep returns a membership test for the bound-skyband, bound <= K(): the
// returned function reports whether the record's dominance count is below
// bound (non-members of this band have count >= K() >= bound). nil for
// pass-through bands, which carry no counts.
func (b *Band) Keep(bound int) func(id int32) bool {
	if b.counts == nil || bound > b.k {
		return nil
	}
	counts := b.counts
	lim := int32(bound)
	return func(id int32) bool {
		if int(id) >= len(counts) {
			return false
		}
		c := counts[id]
		return c >= 0 && c < lim
	}
}

// Cache lazily computes and retains the bands of one snapshot. It is safe
// for concurrent use; concurrent requests for the same k share one
// computation.
type Cache struct {
	tree *rtree.Tree
	ct   *Counters
	mu   sync.Mutex
	ents map[int]*cacheEntry
	// passthrough is the shared pass-through band handed out when a k
	// cannot prune (or exceeds the cache cap); allocated once so the
	// per-query hot paths of small datasets stay allocation-free.
	passthrough atomic.Pointer[Band]
}

type cacheEntry struct {
	once sync.Once
	// band is stored atomically so Stats can peek at entries that another
	// goroutine is still building without racing the once.Do write.
	band atomic.Pointer[Band]
}

// NewCache creates an empty cache over the snapshot tree t. ct carries the
// cumulative counters shared across the clone family; nil allocates a
// private set.
func NewCache(t *rtree.Tree, ct *Counters) *Cache {
	if ct == nil {
		ct = NewCounters()
	}
	return &Cache{tree: t, ct: ct, ents: make(map[int]*cacheEntry)}
}

// Counters returns the cumulative counter set, for propagation into the
// cache of the next snapshot.
func (c *Cache) Counters() *Counters { return c.ct }

// Band returns the band for parameter k, computing it on first use. k
// values that cannot prune (fullBandFactor*k >= n) and requests beyond the
// cache's k-diversity cap are served as pass-through bands over the full
// tree, costing nothing.
//
// Construction deliberately takes no context: a band is shared cache state
// for every reader of the snapshot (like the engine's result cache), so
// one request's cancellation must not abort or poison the build its
// co-readers are waiting on. The work is bounded — one tree walk plus the
// sort-filter — and paid once per (snapshot, k).
func (c *Cache) Band(k int) *Band {
	if k < 1 {
		k = 1
	}
	n := c.tree.Len()
	if fullBandFactor*k >= n {
		return c.passBand()
	}
	c.mu.Lock()
	e, ok := c.ents[k]
	if !ok {
		if len(c.ents) >= maxBands {
			c.mu.Unlock()
			return c.passBand()
		}
		e = &cacheEntry{}
		c.ents[k] = e
	}
	c.mu.Unlock()
	if ok {
		c.ct.hits.Add(1)
	}
	e.once.Do(func() {
		e.band.Store(compute(c.tree, k))
		c.ct.builds.Add(1)
	})
	return e.band.Load()
}

// passBand returns the cache's shared pass-through band. Its K reads 0 —
// pass-through bands serve any k, and no consumer inspects K when Full
// reports true.
func (c *Cache) passBand() *Band {
	if b := c.passthrough.Load(); b != nil {
		return b
	}
	b := &Band{tree: c.tree, size: c.tree.Len(), full: true}
	c.passthrough.Store(b)
	return b
}

// compute collects the snapshot's live points, filters them to the
// k-skyband and bulk-loads the result, preserving original record ids.
func compute(t *rtree.Tree, k int) *Band {
	n := t.Len()
	pts := make([]vec.Point, 0, n)
	ids := make([]int32, 0, n)
	t.Visit(
		func(rtree.Rect, *rtree.Node) bool { return true },
		func(id int32, p vec.Point) {
			pts = append(pts, p)
			ids = append(ids, id)
		},
	)
	band := dominance.KSkyband(pts, k)
	bp := make([]vec.Point, len(band))
	bi := make([]int32, len(band))
	maxID := int32(-1)
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	counts := make([]int32, maxID+1)
	for i := range counts {
		counts[i] = -1
	}
	for i, m := range band {
		bp[i] = pts[m.Index]
		bi[i] = ids[m.Index]
		counts[bi[i]] = int32(m.Count)
	}
	// Band trees are memory-resident accelerators, not simulated disk
	// pages: a small fanout makes each branch-and-bound expansion push
	// far fewer heap entries, which is where band top-k time goes.
	opts := rtree.Options{PageSize: 1024}
	return &Band{k: k, tree: rtree.Bulk(bp, bi, opts), size: len(band), counts: counts}
}

// CountBelowCtx counts the points of t scoring strictly below fq under w,
// band-first: the DefaultRankBand-skyband count is exact whenever it stays
// below the band bound (any dataset with >= K beaters has >= K of them
// inside the K-skyband); a capped count falls back to the count-pruned
// full tree and is tallied in the cache's fallback counter. A nil cache —
// the skyband-off ablation — goes straight to the full tree.
func CountBelowCtx(ctx context.Context, c *Cache, t *rtree.Tree, w vec.Weight, fq float64) (int, error) {
	if c != nil {
		if b := c.Band(DefaultRankBand); !b.Full() {
			cnt, capped, err := topk.CountBelowCappedCtx(ctx, b.Tree(), w, fq, b.K())
			if err != nil {
				return 0, err
			}
			if !capped {
				return cnt, nil
			}
			c.Counters().CountFallback()
		}
	}
	return topk.CountBelowCtx(ctx, t, w, fq)
}

// Stats is a point-in-time view of one cache's contents.
type Stats struct {
	// Bands is the number of bands materialized for this snapshot.
	Bands int `json:"bands"`
	// Points is the total point count across those bands.
	Points int `json:"points"`
}

// Stats reports the cache's current contents (pass-through bands are not
// counted; they hold no state).
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Stats
	//wqrtq:unordered summing int counters; result is order-free
	for _, e := range c.ents {
		if b := e.band.Load(); b != nil {
			s.Bands++
			s.Points += b.size
		}
	}
	return s
}
