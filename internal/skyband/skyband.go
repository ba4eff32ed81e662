// Package skyband implements the k-skyband sub-index that accelerates
// every reverse-top-k-shaped evaluation.
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
// per k, and shared by all readers; they are never mutated. Every snapshot
// has its own Cache bound to its own tree, but a band outlives the
// snapshot it was computed on for as long as it stays the k-skyband:
// invalidation is a membership test, not the epoch bump. Rebind (clone),
// AfterInsert and AfterDelete (one mutation) build the next snapshot's
// Cache and hand it, pointer-identical, every finished band the step
// provably leaves unchanged:
//
//   - inserting p leaves the k-band unchanged iff at least k of its members
//     dominate p. A point with >= k dominators has >= k of them inside the
//     k-skyband (dominance.KSkyband's sort-filter argument), so the test
//     sees them; such a p is no member, and it dominates no member either
//     (its k dominators would dominate that member too), so the members'
//     exact counts — and Keep(bound) for every bound <= k — stay exact.
//   - deleting id leaves the k-band unchanged iff id is no member. Every
//     dominator of a member is a member, so a non-member dominates no
//     member, and each non-member it dominated keeps >= k dominators (it
//     inherits all of the deleted point's).
//
// Anything else — p joins the band, a member is deleted, the dataset
// shrinks to where k is served pass-through, a build still in flight — is
// dropped and recomputed lazily by the next reader; there is deliberately
// no incremental patch path, and a mutation never waits for a build. A
// stale band is unreachable by construction: the only way into a Cache is
// through those three functions. Cumulative counters survive across
// snapshots through the shared Counters, which the serving engine
// surfaces in EngineStats.
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
	carried   atomic.Int64
	dropped   atomic.Int64
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
	// Carried and Dropped count (mutation, materialized band) pairs: bands
	// a mutation handed to the next snapshot unchanged, and bands it
	// invalidated.
	Carried int64 `json:"carried"`
	Dropped int64 `json:"dropped"`
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
		Carried:   c.carried.Load(),
		Dropped:   c.dropped.Load(),
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

// member reports whether record id belongs to the band. Ids allocated
// after the band was computed lie beyond counts and are no members.
func (b *Band) member(id int32) bool {
	return id >= 0 && int(id) < len(b.counts) && b.counts[id] >= 0
}

// excludes reports whether at least K() band members dominate p, under the
// predicate dominance.KSkyband counts with: p is then outside the band and
// dominates none of its members. Only subtrees whose lower corner is <= p can hold a
// dominator, and the walk stops at the k-th.
func (b *Band) excludes(p vec.Point) bool {
	k, found := b.k, 0
	b.tree.Visit(
		func(r rtree.Rect, _ *rtree.Node) bool {
			if found >= k {
				return false
			}
			for j, lo := range r.Min {
				if lo > p[j] {
					return false
				}
			}
			return true
		},
		func(_ int32, m vec.Point) {
			if found < k && vec.Dominates(m, p) {
				found++
			}
		},
	)
	return found >= k
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

// Counters returns the cumulative counter set of the clone family.
func (c *Cache) Counters() *Counters { return c.ct }

// Rebind returns a cache over t, a clone of c's tree holding the same
// points, that starts with every finished band of c. The clone must not
// share c itself: lazy builds read the cache's tree, and the parent may
// later mutate its tree in place.
func (c *Cache) Rebind(t *rtree.Tree) *Cache {
	return c.next(t, false, func(*Band) bool { return true })
}

// AfterInsert returns the cache of snapshot t — c's snapshot plus the
// point p — carrying every finished band that at least k members dominate
// p in (see the package comment); the others are dropped.
func (c *Cache) AfterInsert(t *rtree.Tree, p vec.Point) *Cache {
	return c.next(t, true, func(b *Band) bool { return b.excludes(p) })
}

// AfterDelete returns the cache of snapshot t — c's snapshot minus record
// id — carrying every finished band id is no member of.
func (c *Cache) AfterDelete(t *rtree.Tree, id int32) *Cache {
	return c.next(t, true, func(b *Band) bool { return !b.member(id) })
}

// next builds the cache of snapshot t from the finished entries of c that
// pass unchanged. Entries are shared, not copied: a finished entry is
// immutable. A k the new snapshot would serve pass-through is dropped, so
// the cache holds exactly what it serves; entries still building are left
// behind uncounted — a mutation never waits for a build. mutation selects
// whether the step counts toward Carried/Dropped (a clone is not a
// mutation).
func (c *Cache) next(t *rtree.Tree, mutation bool, unchanged func(*Band) bool) *Cache {
	nc := NewCache(t, c.ct)
	n := t.Len()
	finished := 0
	c.mu.Lock()
	//wqrtq:unordered each entry is judged on its own; the carried set is order-free
	for k, e := range c.ents {
		b := e.band.Load()
		if b == nil {
			continue
		}
		finished++
		if fullBandFactor*k < n && unchanged(b) {
			nc.ents[k] = e
		}
	}
	c.mu.Unlock()
	if mutation {
		c.ct.carried.Add(int64(len(nc.ents)))
		c.ct.dropped.Add(int64(finished - len(nc.ents)))
	}
	return nc
}

// Peek returns the materialized band for parameter k, or nil when there is
// none (never requested, still building, served pass-through). It builds
// nothing and counts nothing; the cell index uses it to decide which grids
// follow their basis band into the next snapshot.
func (c *Cache) Peek(k int) *Band {
	c.mu.Lock()
	e := c.ents[k]
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.band.Load()
}

// Band returns the band for parameter k, computing it on first use. k
// values that cannot prune (fullBandFactor*k >= n) and requests beyond the
// cache's k-diversity cap are served as pass-through bands over the full
// tree, costing nothing.
//
// Construction deliberately takes no context: a band is shared cache state
// for every reader of the snapshot (like the engine's result cache), so
// one request's cancellation must not abort or poison the build its
// co-readers are waiting on. The work is bounded — one tree walk plus the
// sort-filter — and paid once per k until a mutation changes that band.
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
