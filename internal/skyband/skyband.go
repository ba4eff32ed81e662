// Package skyband implements the k-skyband sub-index that accelerates
// every reverse-top-k-shaped evaluation.
//
// Only points dominated by fewer than k others (the k-skyband,
// dominance.KSkyband) can ever appear in a top-k result under a monotone
// linear scoring function; the k smallest scores of the dataset — and any
// strict-beat count below k — are always achieved within that set. A Band
// therefore bulk-loads the skyband points of one snapshot into a compact
// R-tree, and branch-and-bound top-k, reverse top-k membership counts and
// capped rank counting run against it with results bit-identical to the full tree
// (every score is computed by vec.Score either way; only the candidate set
// shrinks, and the shrinkage provably never removes an answer).
//
// A Cache owns the bands of one snapshot. Bands are computed lazily, once
// per k, and shared by all readers; they are never mutated, and state
// derived from one (the cell grid) lives in the band itself (Band.Derived),
// so it follows the band wherever the rules below take it. Every snapshot
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
//
// A band requested only to trim the refinement loops' rank scans (TrimBand)
// is worth having only while it is small, so its build is self-limiting: it
// is abandoned once membership passes n/trimBandFrac, and the members found
// until then are kept as the *decline* for that k — real members, which
// the same two rules keep members, so a decline is carried across mutations
// for as long as its evidence stands and still outnumbers n/trimBandFrac,
// and no later request pays the abandoned build again. Only the evidence
// travels: each snapshot's cache holds it in an entry of its own, because a
// reader may yet complete the entry into the full band of that snapshot's
// tree (see Cache.next).
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

// trimBandFrac bounds the bands TrimBand will finish: a rank-trim band is
// abandoned once it holds more than n/trimBandFrac points. The sort-filter
// costs one dominance test per (point, kept member) pair, so a band of m
// members costs on the order of m²/2 tests at the least — past n/16 that is
// over half a second at n = 100k (anticorrelated data reaches 32k members
// and 12 s at k = 128) — while the candidate universe it would trim is
// typically a quarter of the dataset, so a larger band removes less than
// three quarters of a sweep that costs a nanosecond per point.
const trimBandFrac = 16

// TrimRefusal names why a rank-trim band request was refused.
type TrimRefusal int

const (
	// TrimRefusedK: the rounded band parameter exceeds the cap on trim
	// bands.
	TrimRefusedK TrimRefusal = iota
	// TrimRefusedDataset: k is too large relative to the dataset for a
	// band to prune.
	TrimRefusedDataset
	// TrimRefusedBand: the band itself declined — abandoned as too large,
	// served pass-through, or beyond the cache's k-diversity cap.
	TrimRefusedBand
	numTrimRefusals
)

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
	declines  atomic.Int64
	refused   [numTrimRefusals]atomic.Int64
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

// CountTrimRefusal records one rank-trim band request refused for the
// given reason.
func (c *Counters) CountTrimRefusal(why TrimRefusal) {
	if c != nil {
		c.refused[why].Add(1)
	}
}

// Stats is a point-in-time view of the sub-index: the bands one cache
// holds and its clone family's cumulative counters.
type Stats struct {
	// Bands and Points describe the bands the cache holds, computed or
	// carried (pass-through bands hold no state and are not counted).
	Bands  int `json:"bands"`
	Points int `json:"points"`
	// Builds and Hits count band computations and cache hits (one per
	// reverse top-k on a built band, grid or tree); Fallbacks counts rank
	// queries that exceeded their band bound and fell back to a full tree.
	Builds    int64 `json:"builds"`
	Hits      int64 `json:"hits"`
	Fallbacks int64 `json:"fallbacks"`
	// Carried and Dropped count (mutation, materialized band) pairs: bands
	// a mutation handed to the next snapshot unchanged, grid included, and
	// bands it invalidated (each costs one later build).
	Carried int64 `json:"carried"`
	Dropped int64 `json:"dropped"`
	// Declines counts trim-band builds abandoned as too large; the
	// TrimRefused fields count refused trim requests by reason: k'max over
	// the trim-band cap, a dataset too small for the band to prune, or the
	// band declined or pass-through (a request answered from a cached
	// decline counts under Band without a new Declines tick).
	Declines           int64 `json:"declines"`
	TrimRefusedK       int64 `json:"trim_refused_k"`
	TrimRefusedDataset int64 `json:"trim_refused_dataset"`
	TrimRefusedBand    int64 `json:"trim_refused_band"`
}

// Snapshot copies the counters; the Bands and Points gauges stay zero.
func (c *Counters) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Builds:    c.builds.Load(),
		Hits:      c.hits.Load(),
		Fallbacks: c.fallbacks.Load(),
		Carried:   c.carried.Load(),
		Dropped:   c.dropped.Load(),
		Declines:  c.declines.Load(),

		TrimRefusedK:       c.refused[TrimRefusedK].Load(),
		TrimRefusedDataset: c.refused[TrimRefusedDataset].Load(),
		TrimRefusedBand:    c.refused[TrimRefusedBand].Load(),
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
	// derived is the slot for state derived from the band (Derived),
	// guarded like coords.
	derivedOnce  sync.Once
	derivedReady atomic.Bool
	derived      any
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

// Derived returns the state derived from the band, calling build on first
// use only and sharing its result with every reader. The state lives
// exactly as long as the band: carried with it pointer-identical, dropped
// with it. The slot is opaque and holds one kind of state (the cell grid):
// every caller must pass the same build.
func (b *Band) Derived(build func(*Band) any) any {
	if !b.derivedReady.Load() {
		b.derivedOnce.Do(func() {
			b.derived = build(b)
			b.derivedReady.Store(true)
		})
	}
	return b.derived
}

// Counts returns each record's exact dominance count indexed by record id:
// -1 for non-members (count >= K()), and ids at or beyond the slice — ones
// allocated after the band was computed — are non-members too. The
// bound-skyband for any bound <= K() is exactly the ids with
// 0 <= count < bound. nil for pass-through bands. The slice is shared and
// must not be modified.
func (b *Band) Counts() []int32 { return b.counts }

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
	// once guards the entry's first build: the whole band when the first
	// requester was Band, a size-limited attempt when it was TrimBand.
	once sync.Once
	// band is stored atomically so Stats can peek at entries that another
	// goroutine is still building without racing the once.Do write.
	band atomic.Pointer[Band]
	// decline is the evidence of an abandoned limited build: a Band over
	// the members found before giving up (K() is the entry's k; the counts
	// were exact at the build and mark membership since), never handed to
	// readers. full completes such an entry when a reader arrives that
	// needs the band whatever its size.
	decline atomic.Pointer[Band]
	full    sync.Once
}

// declinedEntry returns a fresh entry holding the decline evidence b, its
// first build already spent: TrimBand answers nil from it and Band completes
// it from its own cache's tree.
func declinedEntry(b *Band) *cacheEntry {
	e := &cacheEntry{}
	e.once.Do(func() {})
	e.decline.Store(b)
	return e
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
// pass unchanged. An entry holding its band is shared, not copied: it is
// immutable from then on. A decline is not — Band completes it from the
// tree of whichever cache asks, and the two snapshots' full bands can
// differ where their evidence agrees (a deleted non-evidence member) — so
// its evidence moves into a fresh entry that the new cache completes on its
// own. The evidence stays a set of true members across both carry rules,
// hence a proof that the band holds at least that many points; it is
// honoured only while that is still more than n/trimBandFrac of the new
// snapshot, so a dataset that outgrew the decline gets its build attempted
// again. A k the new snapshot would serve pass-through is dropped, so the
// cache holds exactly what it serves; entries still building are left
// behind uncounted — a mutation never waits for a build. mutation selects
// whether the step counts toward Carried/Dropped (a clone is not a
// mutation).
func (c *Cache) next(t *rtree.Tree, mutation bool, unchanged func(*Band) bool) *Cache {
	nc := NewCache(t, c.ct)
	n := t.Len()
	finished, kept := 0, 0
	c.mu.Lock()
	//wqrtq:unordered each entry is judged on its own; the carried set is order-free
	for k, e := range c.ents {
		if b := e.band.Load(); b != nil {
			finished++
			if fullBandFactor*k < n && unchanged(b) {
				nc.ents[k] = e
				kept++
			}
			continue
		}
		// Declines ride along uncounted: Carried/Dropped are about
		// materialized bands, whose loss costs a rebuild.
		if b := e.decline.Load(); b != nil && fullBandFactor*k < n && b.size > n/trimBandFrac && unchanged(b) {
			nc.ents[k] = declinedEntry(b)
		}
	}
	c.mu.Unlock()
	if mutation {
		c.ct.carried.Add(int64(kept))
		c.ct.dropped.Add(int64(finished - kept))
	}
	return nc
}

// Peek returns the materialized band for parameter k, or nil when there is
// none (never requested, still building, served pass-through). It builds
// nothing and counts nothing, so tests use it to see which bands a step
// carried.
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
	e := c.entry(k)
	if e == nil {
		return c.passBand()
	}
	if b := e.band.Load(); b != nil {
		return b
	}
	build := func() {
		b, _ := compute(c.tree, k, c.tree.Len())
		e.band.Store(b)
		c.ct.builds.Add(1)
	}
	e.once.Do(build)
	if e.band.Load() == nil {
		// The entry's first build was a TrimBand attempt that declined;
		// this reader needs the band regardless of its size.
		e.full.Do(build)
	}
	return e.band.Load()
}

// TrimBand returns the band for parameter k if it is worth trimming rank
// scans with — at most n/trimBandFrac points — and nil otherwise. A band
// some reader already materialized is returned whatever its size (the
// caller's own payoff test judges it); otherwise the build is abandoned
// once membership passes the limit, and the decline is cached and carried
// like a band, so the abandoned work is paid once per k and lineage, not
// per request. nil also covers the cases Band serves pass-through.
func (c *Cache) TrimBand(k int) *Band {
	if k < 1 {
		k = 1
	}
	e := c.entry(k)
	if e == nil {
		return nil
	}
	e.once.Do(func() {
		b, complete := compute(c.tree, k, c.tree.Len()/trimBandFrac)
		if complete {
			e.band.Store(b)
			c.ct.builds.Add(1)
		} else {
			e.decline.Store(b)
			c.ct.declines.Add(1)
		}
	})
	return e.band.Load()
}

// entry returns the cache entry for k, creating it on first request, or
// nil when k is served pass-through: it cannot prune (fullBandFactor*k >=
// n) or the cache already holds maxBands distinct k values. A request that
// finds an existing entry counts as a hit.
func (c *Cache) entry(k int) *cacheEntry {
	if fullBandFactor*k >= c.tree.Len() {
		return nil
	}
	c.mu.Lock()
	e, ok := c.ents[k]
	if !ok {
		if len(c.ents) >= maxBands {
			c.mu.Unlock()
			return nil
		}
		e = &cacheEntry{}
		c.ents[k] = e
	}
	c.mu.Unlock()
	if ok {
		c.ct.hits.Add(1)
	}
	return e
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
// k-skyband and bulk-loads the result, preserving original record ids. The
// filter gives up past limit members (dominance.KSkybandLimit); the Band
// then holds the members found so far and complete reports false.
func compute(t *rtree.Tree, k, limit int) (b *Band, complete bool) {
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
	band, complete := dominance.KSkybandLimit(pts, k, limit)
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
	return &Band{k: k, tree: rtree.Bulk(bp, bi, TreeOptions(t.Dim())), size: len(band), counts: counts}, complete
}

// bandFanout is the number of entries per band-tree node, at every
// dimensionality. Band trees are memory-resident accelerators, not
// simulated disk pages, and their hot reader is the capped count descent
// (topk.CountBelowCapped), whose cost is set by entries, not bytes: a
// visited node scores each entry's lower corner, and deeper trees visit
// more nodes. A fixed page gave fanout 18 at d = 3 but 4 at d = 13, where
// the NBA-like band became a height-7 tree whose descents visited ~85
// nodes. A BenchmarkCountBelowCapped sweep over fanouts 8–32 at d = 3, 6
// and 13 (DESIGN §9) put 16 level with the best at d = 13 and within 1.2×
// of it at d = 3 and 6, close to the old 18 at d = 3.
const bandFanout = 16

// TreeOptions is the geometry every band tree is bulk-loaded with at
// dimensionality dim: bandFanout entries per node.
func TreeOptions(dim int) rtree.Options {
	return rtree.Options{PageSize: rtree.PageSizeFor(dim, bandFanout)}
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

// Stats reports the cache's bands and its family's counters.
func (c *Cache) Stats() Stats {
	s := c.ct.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	//wqrtq:unordered summing int counters; result is order-free
	for _, e := range c.ents {
		if b := e.band.Load(); b != nil {
			s.Bands++
			s.Points += b.size
		}
	}
	return s
}

// EachDerived calls fn with the derived state of every band the cache
// holds whose slot is filled (see Band.Derived). It builds nothing and
// counts nothing.
func (c *Cache) EachDerived(fn func(any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	//wqrtq:unordered each band's state is reported on its own; callers sum
	for _, e := range c.ents {
		if b := e.band.Load(); b != nil && b.derivedReady.Load() {
			fn(b.derived)
		}
	}
}
