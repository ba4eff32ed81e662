// Package skyband implements the k-skyband sub-index that accelerates
// every reverse-top-k-shaped evaluation.
//
// Only points dominated by fewer than k others (the k-skyband,
// dominance.KSkyband) can ever appear in a top-k result under a
// monotone linear scoring function; the k smallest scores of the dataset —
// and any strict-beat count below k — are always achieved within that set.
// A Band therefore bulk-loads the skyband points of one snapshot into a compact
// R-tree, and branch-and-bound top-k, reverse top-k membership counts and
// capped rank counting run against it with results bit-identical to the full tree
// (every score is computed by vec.Score either way; only the candidate set
// shrinks, and the shrinkage provably never removes an answer).
//
// A Cache owns the bands of one snapshot. Bands are computed once per k and
// shared by all readers; they are never mutated, and state derived from one
// (the cell grid) lives in the band itself (Band.Derived), so it follows
// the band wherever the rules below take it. A reader on the request path
// never waits for a build: TryBand and TrimBand return nil while the band
// is missing, having started one background build (through the spawn of
// the family's Counters) that every later reader shares, and the caller
// answers from the tier below, which decides identically. Band waits for
// the build, for the callers that have no tier below.
//
// A finished band that kept every point of its snapshot prunes nothing, so
// it is declined with reason whole: its tree is dropped and k is served
// pass-through, like a k too large to prune.
//
// Every snapshot has its own Cache bound to its own tree, but a band
// outlives the snapshot it was computed on for as long as it stays the
// k-skyband: invalidation is a membership test, not the epoch bump. Rebind
// (clone), AfterInsert and AfterDelete (one mutation) build the next
// snapshot's Cache and hand it, pointer-identical, every finished band the
// step provably leaves unchanged:
//
//   - inserting p leaves the k-band unchanged iff at least k of its members
//     dominate p. A point with >= k dominators has >= k of them inside the
//     k-skyband (the argument in dominance.KSkyband's comment), so the test
//     sees them; such a p is no member, and it dominates no member either
//     (its k dominators would dominate that member too), so the members'
//     exact counts — and so the bound-skyband for every bound <= k — stay exact.
//   - deleting id leaves the k-band unchanged iff id is no member. Every
//     dominator of a member is a member, so a non-member dominates no
//     member, and each non-member it dominated keeps >= k dominators (it
//     inherits all of the deleted point's).
//
// Anything else — p joins the band, a member is deleted, the dataset
// shrinks to where k is served pass-through — is dropped and recomputed by
// the next reader; there is deliberately no incremental patch path. A
// build still in flight is carried too, and a mutation never waits for it:
// the next snapshot's entry waits on the same build, and when it finishes
// the same rules judge its band against every step it was carried across,
// handing it on unchanged or leaving the later entries empty. A whole
// decline is carried by a clone only (a delete always removes a member). A
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
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// abandoned once it holds more than n/trimBandFrac points. The limit is
// about payoff, not build cost: the candidate universe a band trims is
// typically a quarter of the dataset, so a band past n/16 removes less than
// three quarters of a sweep that costs a nanosecond per point, yet it holds
// a tree and a count table per k. At n = 100k a finished band of that size
// costs a few hundred milliseconds (anticorrelated d = 3 at k = 128: 32k
// members, 0.45 s) and an abandoned one 30–80 ms.
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
	// TrimRefusedBand: the band itself is not there — still building,
	// abandoned as too large, whole, served pass-through, or beyond the
	// cache's k-diversity cap.
	TrimRefusedBand
	numTrimRefusals
)

// Counters accumulates band-cache activity across snapshots and starts
// the family's background builds. One Counters is shared by every Cache in
// a clone family, so the serving engine reports cumulative numbers over
// the index's whole lifetime, not just the current epoch.
type Counters struct {
	builds        atomic.Int64
	hits          atomic.Int64
	fallbacks     atomic.Int64
	carried       atomic.Int64
	dropped       atomic.Int64
	trimDeclines  atomic.Int64
	wholeDeclines atomic.Int64
	buildNS       atomic.Int64
	refused       [numTrimRefusals]atomic.Int64
	// pending and derivedPending count the band builds and the derived-
	// state builds (Band.TryDerived) started and not yet finished.
	pending        atomic.Int64
	derivedPending atomic.Int64
	spawn          func(fn func()) bool
}

// NewCounters creates a zeroed counter set whose background builds start
// through spawn: it runs fn off the caller's goroutine, or runs nothing and
// reports false once the family takes no more builds. nil spawns a
// goroutine for every build.
func NewCounters(spawn func(fn func()) bool) *Counters { return &Counters{spawn: spawn} }

// start runs fn in the background through the family's spawn.
func (c *Counters) start(fn func()) bool {
	if c.spawn == nil {
		go fn()
		return true
	}
	return c.spawn(fn)
}

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

// DerivedPending reports the derived-state builds in flight across the
// family.
func (c *Counters) DerivedPending() int64 { return c.derivedPending.Load() }

// Stats is a point-in-time view of the sub-index: the bands one cache
// holds and its clone family's cumulative counters.
type Stats struct {
	// Bands and Points describe the bands the cache holds, computed or
	// carried (pass-through bands hold no state and are not counted).
	Bands  int `json:"bands"`
	Points int `json:"points"`
	// Builds and Hits count band computations and reads that found their
	// band built; Fallbacks counts rank queries that exceeded their band
	// bound and fell back to a full tree.
	Builds    int64 `json:"builds"`
	Hits      int64 `json:"hits"`
	Fallbacks int64 `json:"fallbacks"`
	// BuildTime is the wall time spent computing bands, finished (Builds)
	// or declined (Declines), all of it off the request path.
	BuildTime time.Duration `json:"build_ns"`
	// Carried and Dropped count (mutation, materialized band) pairs: bands
	// a mutation handed to the next snapshot unchanged, grid included, and
	// bands it invalidated (each costs one later build). A build in flight
	// counts once it finishes and is judged.
	Carried int64 `json:"carried"`
	Dropped int64 `json:"dropped"`
	// Declines counts the builds that left no band to serve, by reason;
	// Pending the band builds in flight.
	Declines Declines `json:"declines"`
	Pending  int64    `json:"pending"`
	// The TrimRefused fields count refused trim requests by reason: k'max
	// over the trim-band cap, a dataset too small for the band to prune, or
	// no band to serve (see TrimRefusedBand).
	TrimRefusedK       int64 `json:"trim_refused_k"`
	TrimRefusedDataset int64 `json:"trim_refused_dataset"`
	TrimRefusedBand    int64 `json:"trim_refused_band"`
}

// Declines splits the declined band builds by reason: TrimLimit counts
// trim-band builds abandoned past n/trimBandFrac members, Whole finished
// bands that kept every point and are served pass-through.
type Declines struct {
	TrimLimit int64 `json:"trim_limit"`
	Whole     int64 `json:"whole"`
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
		Declines:  Declines{TrimLimit: c.trimDeclines.Load(), Whole: c.wholeDeclines.Load()},
		Pending:   c.pending.Load(),
		BuildTime: time.Duration(c.buildNS.Load()),

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
	// ids and counts hold each member's record id and exact dominance
	// count, position by position of coords; sorted is ids in ascending
	// order, for member's binary search. nil for pass-through bands.
	ids, counts, sorted []int32
	// ct is the family that built the band, whose spawn TryDerived
	// starts its build through; nil for pass-through bands.
	ct *Counters
	// coords is the column-major image of the band points: the members in
	// dominance.KSkyband's order, laid out when the band is computed. A
	// pass-through band's image is the whole tree, flattened on first use
	// by one sync.Once shared by every reader. coordsReady fronts the Once
	// with one atomic load so the steady-state Coords call stays inlinable
	// (sync.Once.Do alone costs more than the inlining budget); the Store
	// inside the Do publishes the flatten to every reader that observes
	// true.
	coordsOnce  sync.Once
	coordsReady atomic.Bool
	coords      kernel.Coords
	// derived is the slot for state derived from the band (Derived),
	// fronted by derivedReady like coords. derivedRun is closed when the
	// build in flight finishes, nil while none is; derivedMu guards it.
	derivedMu    sync.Mutex
	derivedRun   chan struct{}
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
// prune, or its band kept every point, so the band tree is the snapshot's
// full tree.
func (b *Band) Full() bool { return b.full }

// Coords returns the band's column-major image for the scoring kernel,
// the cell grid and the why-not trim, shared by all readers (bands
// are immutable, so the image never goes stale). The point order is
// dominance.KSkyband's: the depth-first leaf order of the tree the band
// was computed on, which Members follows position by position. Counting
// is order-independent, so consumers see the same counts as a
// tree evaluation. A pass-through band's image is the whole dataset in
// its tree's visit order, flattened on first use: callers should bound the
// band size themselves before asking for it.
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
// use only — or waiting for the build a TryDerived started — and sharing
// its result with every reader. The state lives exactly as long as the
// band: carried with it pointer-identical, dropped with it. The slot is
// opaque and holds one kind of state (the cell grid): every caller must
// pass the same build.
func (b *Band) Derived(build func(*Band) any) any {
	for !b.derivedReady.Load() {
		b.derivedMu.Lock()
		run := b.derivedRun
		if run == nil && !b.derivedReady.Load() {
			run = make(chan struct{})
			b.derivedRun = run
			b.derivedMu.Unlock()
			b.fillDerived(build, run)
			break
		}
		b.derivedMu.Unlock()
		if run != nil {
			<-run
		}
	}
	return b.derived
}

// TryDerived is Derived for the request path: it returns the derived state
// and true once built, and otherwise nil and false, having started one
// background build through the family's spawn unless one is in flight.
func (b *Band) TryDerived(build func(*Band) any) (any, bool) {
	if b.derivedReady.Load() {
		return b.derived, true
	}
	b.derivedMu.Lock()
	if b.derivedReady.Load() || b.derivedRun != nil {
		b.derivedMu.Unlock()
		return nil, false
	}
	run := make(chan struct{})
	b.derivedRun = run
	b.derivedMu.Unlock()
	ct := b.ct
	ct.derivedPending.Add(1)
	if !ct.start(func() {
		b.fillDerived(build, run)
		ct.derivedPending.Add(-1)
	}) {
		ct.derivedPending.Add(-1)
		b.derivedMu.Lock()
		b.derivedRun = nil
		b.derivedMu.Unlock()
		close(run)
	}
	return nil, false
}

// fillDerived runs build into the slot and ends the run.
func (b *Band) fillDerived(build func(*Band) any, run chan struct{}) {
	v := build(b)
	b.derivedMu.Lock()
	b.derived = v
	b.derivedReady.Store(true)
	b.derivedRun = nil
	b.derivedMu.Unlock()
	close(run)
}

// Members returns the record id and the exact dominance count of the
// member at each position of Coords. The bound-skyband for any bound <=
// K() is exactly the members with count < bound. Both are nil for
// pass-through bands; the slices are shared and must not be modified.
func (b *Band) Members() (ids, counts []int32) { return b.ids, b.counts }

// member reports whether record id belongs to the band.
func (b *Band) member(id int32) bool {
	_, ok := slices.BinarySearch(b.sorted, id)
	return ok
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

// Cache computes and retains the bands of one snapshot. It is safe for
// concurrent use; concurrent requests for the same k share one
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
	// reading counts the band builds in flight over tree (see Reading).
	reading atomic.Int32
}

// cacheEntry is one k of a cache: what its builds left, and the build in
// flight. band and whole, once set, never change, so an entry holding
// either is shared by every snapshot it is carried to.
type cacheEntry struct {
	// band is the finished band. decline is the evidence of an abandoned
	// limited build: a Band over the members found before giving up (K()
	// is the entry's k; the counts were exact at the build and mark
	// membership since), never handed to readers; a reader that needs the
	// band whatever its size completes such an entry. whole marks a band
	// that kept every point, served pass-through.
	band    atomic.Pointer[Band]
	decline atomic.Pointer[Band]
	whole   atomic.Bool

	mu sync.Mutex
	// run is the build the entry waits on, nil when none is: its own, or
	// an earlier snapshot's that a step carried to it (see Cache.next).
	run *run
	// carries are the entries of later snapshots waiting on run.
	carries []carry
}

// run is one build in flight; done closes once its entry has settled.
type run struct {
	done    chan struct{}
	limited bool // a TrimBand attempt, which may end in a decline
}

// outcome is what a build leaves its entry: a band, decline evidence, or
// the whole mark. The zero outcome leaves the entry empty, for the next
// reader to build.
type outcome struct {
	band, decline *Band
	whole         bool
}

// carry hands a build in flight on to the entry of a later snapshot of n
// points, across a step judged by unchanged once the build finishes.
type carry struct {
	to        *cacheEntry
	k, n      int
	mutation  bool
	unchanged func(*Band) bool
}

// declinedEntry returns a fresh entry holding the decline evidence b:
// TrimBand answers nil from it and Band completes it from its own cache's
// tree.
func declinedEntry(b *Band) *cacheEntry {
	e := &cacheEntry{}
	e.decline.Store(b)
	return e
}

// outcome reports what the entry's finished builds left.
func (e *cacheEntry) outcome() outcome {
	return outcome{band: e.band.Load(), decline: e.decline.Load(), whole: e.whole.Load()}
}

// settle stores o, ends the entry's run and hands o on to every entry the
// run was carried to, each judged across its own step.
func (e *cacheEntry) settle(o outcome, ct *Counters) {
	e.mu.Lock()
	switch {
	case o.band != nil:
		e.band.Store(o.band)
	case o.whole:
		e.whole.Store(true)
	case o.decline != nil:
		e.decline.Store(o.decline)
	}
	r, carries := e.run, e.carries
	e.run, e.carries = nil, nil
	e.mu.Unlock()
	close(r.done)
	for _, c := range carries {
		c.to.settle(ct.judge(o, c.k, c.n, c.mutation, c.unchanged), ct)
	}
}

// judge applies the carry rules to o, what k's build left, across one step
// to a snapshot of n points, and returns what that snapshot inherits: a
// band the step leaves unchanged (counted as carried or dropped when the
// step is a mutation), decline evidence the step leaves standing that
// still outnumbers n/trimBandFrac, and a whole mark across a clone;
// nothing once n is small enough for k to be served pass-through.
func (c *Counters) judge(o outcome, k, n int, mutation bool, unchanged func(*Band) bool) outcome {
	pass := fullBandFactor*k >= n
	switch {
	case o.band != nil:
		if !pass && unchanged(o.band) {
			if mutation {
				c.carried.Add(1)
			}
			return o
		}
		if mutation {
			c.dropped.Add(1)
		}
	case o.whole:
		if !pass && !mutation {
			return o
		}
	case o.decline != nil:
		if !pass && o.decline.size > n/trimBandFrac && unchanged(o.decline) {
			return outcome{decline: o.decline}
		}
	}
	return outcome{}
}

// NewCache creates an empty cache over the snapshot tree t. ct carries the
// cumulative counters shared across the clone family; nil allocates a
// private set whose builds each spawn a goroutine.
func NewCache(t *rtree.Tree, ct *Counters) *Cache {
	if ct == nil {
		ct = NewCounters(nil)
	}
	return &Cache{tree: t, ct: ct, ents: make(map[int]*cacheEntry)}
}

// Counters returns the cumulative counter set of the clone family.
func (c *Cache) Counters() *Counters { return c.ct }

// Rebind returns a cache over t, a clone of c's tree holding the same
// points, that starts with every band of c, finished or in flight. The
// clone must not share c itself: builds read the cache's tree, and the
// parent may later mutate its tree in place.
func (c *Cache) Rebind(t *rtree.Tree) *Cache {
	return c.next(t, false, func(*Band) bool { return true })
}

// AfterInsert returns the cache of snapshot t — c's snapshot plus the
// point p — carrying every band that at least k members dominate p in (see
// the package comment); the others are dropped.
func (c *Cache) AfterInsert(t *rtree.Tree, p vec.Point) *Cache {
	return c.next(t, true, func(b *Band) bool { return b.excludes(p) })
}

// AfterDelete returns the cache of snapshot t — c's snapshot minus record
// id — carrying every band id is no member of.
func (c *Cache) AfterDelete(t *rtree.Tree, id int32) *Cache {
	return c.next(t, true, func(b *Band) bool { return !b.member(id) })
}

// next builds the cache of snapshot t from the entries of c, by
// Counters.judge. An entry holding its band or the whole mark is shared,
// not copied: it is immutable from then on. A decline is not — Band
// completes it from the tree of whichever cache asks, and the two
// snapshots' full bands can differ where their evidence agrees (a deleted
// non-evidence member) — so its evidence moves into a fresh entry that the
// new cache completes on its own. An entry whose build is in flight gets a
// fresh entry that waits on the same build, judged when it finishes (see
// settle); the mutation does not wait. mutation selects whether the step
// counts toward Carried/Dropped (a clone is not a mutation).
func (c *Cache) next(t *rtree.Tree, mutation bool, unchanged func(*Band) bool) *Cache {
	nc := NewCache(t, c.ct)
	n := t.Len()
	c.mu.Lock()
	defer c.mu.Unlock()
	//wqrtq:unordered each entry is judged on its own; the carried set is order-free
	for k, e := range c.ents {
		e.mu.Lock()
		if r := e.run; r != nil {
			if fullBandFactor*k < n {
				to := &cacheEntry{run: &run{done: make(chan struct{}), limited: r.limited}}
				e.carries = append(e.carries, carry{to: to, k: k, n: n, mutation: mutation, unchanged: unchanged})
				nc.ents[k] = to
			}
			e.mu.Unlock()
			continue
		}
		e.mu.Unlock()
		switch o := c.ct.judge(e.outcome(), k, n, mutation, unchanged); {
		case o.band != nil || o.whole:
			nc.ents[k] = e
		case o.decline != nil:
			nc.ents[k] = declinedEntry(o.decline)
		}
	}
	return nc
}

// Band returns the band for parameter k, computing it on first use or
// waiting for the build in flight. k values that cannot prune
// (fullBandFactor*k >= n), whole bands and requests beyond the cache's
// k-diversity cap are served as pass-through bands over the full tree.
// Band is for callers with no tier below it (the exact monochromatic query,
// the benchmark harness); the request path uses TryBand.
//
// Construction deliberately takes no context: a band is shared cache state
// for every reader of the snapshot (like the engine's result cache), so
// one request's cancellation must not abort or poison the build its
// co-readers are waiting on. The work is bounded — one best-first walk of
// the tree — and paid once per k until a mutation changes that band.
func (c *Cache) Band(k int) *Band {
	if k < 1 {
		k = 1
	}
	e := c.entry(k)
	if e == nil {
		return c.passBand()
	}
	if b := e.band.Load(); b != nil {
		c.ct.hits.Add(1)
		return b
	}
	for {
		if b := e.band.Load(); b != nil {
			return b
		}
		if e.whole.Load() {
			return c.passBand()
		}
		e.mu.Lock()
		r := e.run
		if r == nil {
			r = c.begin(e, false)
			e.mu.Unlock()
			c.build(e, k, r)
			continue
		}
		e.mu.Unlock()
		<-r.done
	}
}

// TryBand returns the band for parameter k if it is built — a pass-through
// band where Band would serve one — and otherwise nil, having started one
// background build unless one is in flight. It never waits.
func (c *Cache) TryBand(k int) *Band {
	if k < 1 {
		k = 1
	}
	e := c.entry(k)
	if e == nil {
		return c.passBand()
	}
	if b := e.band.Load(); b != nil {
		c.ct.hits.Add(1)
		return b
	}
	if e.whole.Load() {
		return c.passBand()
	}
	c.spawn(e, k, false)
	return nil
}

// TrimBand returns the band for parameter k if it is worth trimming rank
// scans with, and nil otherwise; it never waits. A band some reader
// already materialized is returned whatever its size (the caller's own
// payoff test judges it). A missing one gets a background build that is
// abandoned once membership passes n/trimBandFrac; the decline is cached
// and carried like a band, so the abandoned work is paid once per k and
// lineage, not per request. nil also covers the cases Band serves
// pass-through.
func (c *Cache) TrimBand(k int) *Band {
	if k < 1 {
		k = 1
	}
	e := c.entry(k)
	if e == nil {
		return nil
	}
	if b := e.band.Load(); b != nil {
		c.ct.hits.Add(1)
		return b
	}
	c.spawn(e, k, true)
	return nil
}

// Peek returns the finished band for parameter k, or nil when there is
// none (never requested, still building, declined, served pass-through).
// It starts nothing and counts nothing.
func (c *Cache) Peek(k int) *Band {
	c.mu.Lock()
	e := c.ents[k]
	c.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.band.Load()
}

// begin records a build of e in flight; the caller holds e.mu. end
// records its end.
func (c *Cache) begin(e *cacheEntry, limited bool) *run {
	e.run = &run{done: make(chan struct{}), limited: limited}
	c.ct.pending.Add(1)
	c.reading.Add(1)
	return e.run
}

func (c *Cache) end() {
	c.reading.Add(-1)
	c.ct.pending.Add(-1)
}

// Reading reports whether a band build is still reading the cache's tree.
// Builds run in the background, so a caller about to mutate that tree in
// place must first give itself a tree of its own (rtree.Tree.Clone).
func (c *Cache) Reading() bool { return c.reading.Load() > 0 }

// spawn starts a background build of k on e unless one is in flight or e
// needs none: a limited one only while e holds no decline, a full one only
// while it holds neither band nor whole mark. A build the family's spawn
// refuses leaves the entry as it was.
func (c *Cache) spawn(e *cacheEntry, k int, limited bool) {
	e.mu.Lock()
	if e.run != nil || e.band.Load() != nil || e.whole.Load() || limited && e.decline.Load() != nil {
		e.mu.Unlock()
		return
	}
	r := c.begin(e, limited)
	e.mu.Unlock()
	if !c.ct.start(func() { c.build(e, k, r) }) {
		c.end()
		e.settle(outcome{}, c.ct)
	}
}

// build runs r, the build of k on e, over the cache's tree — a limited one
// gives up past n/trimBandFrac members — and settles e with the result.
func (c *Cache) build(e *cacheEntry, k int, r *run) {
	n := c.tree.Len()
	limit := n
	if r.limited {
		limit = n / trimBandFrac
	}
	b, complete := c.buildBand(k, limit)
	var o outcome
	switch {
	case !complete:
		o.decline = b
		c.ct.trimDeclines.Add(1)
	case b.size == n:
		o.whole = true
		c.ct.wholeDeclines.Add(1)
	default:
		o.band = b
		c.ct.builds.Add(1)
	}
	e.settle(o, c.ct)
	c.end()
}

// entry returns the cache entry for k, creating it on first request, or
// nil when k is served pass-through: it cannot prune (fullBandFactor*k >=
// n) or the cache already holds maxBands distinct k values.
func (c *Cache) entry(k int) *cacheEntry {
	if fullBandFactor*k >= c.tree.Len() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.ents[k]
	if !ok {
		if len(c.ents) >= maxBands {
			return nil
		}
		e = &cacheEntry{}
		c.ents[k] = e
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

// compute builds the snapshot's k-skyband straight from its tree
// (dominance.KSkyband): the members' image with their original record ids
// and counts, in the tree's leaf order, and a tree bulk-loaded over them.
// The build gives up past limit members; the Band then holds the members
// found so far and complete reports false.
func compute(t *rtree.Tree, k, limit int) (b *Band, complete bool) {
	band, complete := dominance.KSkyband(t, k, limit)
	b = &Band{k: k, size: len(band), ids: make([]int32, len(band)), counts: make([]int32, len(band))}
	bp := make([]vec.Point, len(band))
	for i, m := range band {
		bp[i], b.ids[i], b.counts[i] = m.Point, m.ID, int32(m.Count)
	}
	b.sorted = slices.Clone(b.ids)
	slices.Sort(b.sorted)
	b.coords.Fill(t.Dim(), len(band), func(i int) []float64 { return bp[i] })
	b.coordsReady.Store(true)
	b.tree = rtree.Bulk(bp, b.ids, TreeOptions(t.Dim()))
	return b, complete
}

// buildBand runs compute over the cache's tree, binds the band to the
// family and adds its wall time to the family's BuildTime.
func (c *Cache) buildBand(k, limit int) (*Band, bool) {
	start := time.Now()
	b, complete := compute(c.tree, k, limit)
	b.ct = c.ct
	c.ct.buildNS.Add(int64(time.Since(start)))
	return b, complete
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
// full tree and is tallied in the cache's fallback counter, and a band
// still building sends the count there untallied. A nil cache — the skyband-off ablation — goes
// straight to the full tree.
func CountBelowCtx(ctx context.Context, c *Cache, t *rtree.Tree, w vec.Weight, fq float64) (int, error) {
	if c != nil {
		if b := c.TryBand(DefaultRankBand); b != nil && !b.Full() {
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
