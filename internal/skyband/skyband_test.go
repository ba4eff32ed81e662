package skyband

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wqrtq/internal/dominance"
	"wqrtq/internal/rtree"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

func randPoints(n, d int, rng *rand.Rand) []vec.Point {
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

func randWeight(d int, rng *rand.Rand) vec.Weight {
	w := make(vec.Weight, d)
	sum := 0.0
	for j := range w {
		w[j] = rng.ExpFloat64()
		sum += w[j]
	}
	for j := range w {
		w[j] /= sum
	}
	return w
}

// TestBandTopKMatchesFullTree is the core sub-index property: the k
// smallest scores of the dataset (as a sequence) are identical over the
// band tree and the full tree, for any weighting vector.
func TestBandTopKMatchesFullTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{50, 400, 2000} {
		pts := randPoints(n, 3, rng)
		tr := rtree.Bulk(pts, nil)
		c := NewCache(tr, nil)
		for _, k := range []int{1, 5, 17} {
			b := c.Band(k)
			if b.Size() > tr.Len() {
				t.Fatalf("band larger than dataset: %d > %d", b.Size(), tr.Len())
			}
			for trial := 0; trial < 25; trial++ {
				w := randWeight(3, rng)
				got := topk.TopK(b.Tree(), w, k)
				want := topk.TopK(tr, w, k)
				if len(got) != len(want) {
					t.Fatalf("n=%d k=%d: band top-k has %d results, full %d", n, k, len(got), len(want))
				}
				for i := range got {
					if got[i].Score != want[i].Score {
						t.Fatalf("n=%d k=%d rank %d: band score %v, full %v", n, k, i+1, got[i].Score, want[i].Score)
					}
					if got[i].ID != want[i].ID {
						// Continuous data: ties have probability zero, so
						// identities must match too.
						t.Fatalf("n=%d k=%d rank %d: band id %d, full %d", n, k, i+1, got[i].ID, want[i].ID)
					}
				}
			}
		}
	}
}

// TestBandCappedCountExactBelowBound checks the rank fast path: a band
// count below the band bound equals the full-tree strict-beat count, and a
// capped result only ever occurs when the true count is at least the bound.
func TestBandCappedCountExactBelowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randPoints(3000, 3, rng)
	tr := rtree.Bulk(pts, nil)
	c := NewCache(tr, nil)
	b := c.Band(DefaultRankBand)
	if b.Full() {
		t.Fatalf("expected a real band for n=3000, k=%d", DefaultRankBand)
	}
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		w := randWeight(3, rng)
		q := vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
		fq := vec.Score(w, q)
		want := topk.Rank(tr, w, fq) - 1
		cnt, capped, err := topk.CountBelowCappedCtx(ctx, b.Tree(), w, fq, b.K())
		if err != nil {
			t.Fatal(err)
		}
		if !capped && cnt != want {
			t.Fatalf("trial %d: band count %d, full count %d", trial, cnt, want)
		}
		if capped && want < b.K() {
			t.Fatalf("trial %d: capped at %d but true count %d < bound", trial, cnt, want)
		}
	}
}

// TestCachePassThroughAndCap covers the full-band pass-through for large k
// and the k-diversity cap.
func TestCachePassThroughAndCap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPoints(100, 2, rng)
	tr := rtree.Bulk(pts, nil)
	c := NewCache(tr, nil)
	if b := c.Band(40); !b.Full() || b.Tree() != tr || b.Size() != 100 {
		t.Fatalf("Band(40) over n=100 should pass through the full tree")
	}
	if got := c.Stats(); got.Bands != 0 {
		t.Fatalf("pass-through bands must not be cached, Stats = %+v", got)
	}
	for k := 1; k <= maxBands; k++ {
		c.Band(k)
	}
	st := c.Stats()
	if st.Bands != maxBands {
		t.Fatalf("cached %d bands, want %d", st.Bands, maxBands)
	}
	// Beyond the cap: served as pass-through, cache unchanged.
	if b := c.Band(maxBands + 1); !b.Full() {
		t.Fatalf("band beyond the cap should pass through")
	}
	if got := c.Stats(); got.Bands != maxBands {
		t.Fatalf("cap exceeded: %d bands cached", got.Bands)
	}
}

// TestCacheCountersAndSharing checks build/hit accounting and that one
// build is shared across concurrent readers.
func TestCacheCountersAndSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randPoints(800, 3, rng)
	tr := rtree.Bulk(pts, nil)
	ct := NewCounters(nil)
	c := NewCache(tr, ct)
	var wg sync.WaitGroup
	bands := make([]*Band, 8)
	for i := range bands {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bands[i] = c.Band(7)
		}(i)
	}
	wg.Wait()
	for _, b := range bands[1:] {
		if b != bands[0] {
			t.Fatalf("concurrent readers got different bands")
		}
	}
	s := ct.Snapshot()
	if s.Builds != 1 {
		t.Fatalf("builds = %d, want 1", s.Builds)
	}
	if s.Builds+s.Hits < 1 {
		t.Fatalf("counters not accumulating: %+v", s)
	}
	c.Band(7)
	if got := ct.Snapshot().Hits; got < 1 {
		t.Fatalf("hits = %d after a repeat request", got)
	}
	// A second cache sharing the counters keeps accumulating.
	c2 := NewCache(tr, ct)
	c2.Band(7)
	if got := ct.Snapshot().Builds; got != 2 {
		t.Fatalf("builds across caches = %d, want 2", got)
	}
}

// countsByID returns b's member counts indexed by record id over ids
// [0, n): -1 for non-members.
func countsByID(b *Band, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	ids, counts := b.Members()
	for i, id := range ids {
		out[id] = counts[i]
	}
	return out
}

// TestBandCounts validates the band's image against the quadratic
// oracle's members and, for one bound, against a direct count of
// dominators: every member once, with its exact count, position by
// position of Coords in the tree's depth-first leaf order
// (dominance.KSkyband's).
func TestBandCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randPoints(600, 3, rng)
	tr := rtree.Bulk(pts, nil)
	c := NewCache(tr, nil)
	b := c.Band(16)
	if b.Full() {
		t.Skip("band unexpectedly passed through")
	}
	want := make([]int32, len(pts))
	for i := range want {
		want[i] = -1
	}
	for _, m := range dominance.KSkybandNaive(pts, 16) {
		want[m.Index] = int32(m.Count)
	}
	if !slices.Equal(countsByID(b, len(pts)), want) {
		t.Fatal("band counts differ from dominance.KSkybandNaive's")
	}
	ids, counts := b.Members()
	img := b.Coords()
	if len(ids) != b.Size() || len(counts) != b.Size() || img.Len() != b.Size() {
		t.Fatalf("image of %d points, %d ids, %d counts for a band of %d", img.Len(), len(ids), len(counts), b.Size())
	}
	pos := map[int32]int{}
	tr.Visit(nil, func(id int32, _ vec.Point) { pos[id] = len(pos) })
	for i, id := range ids {
		if i > 0 && pos[ids[i-1]] >= pos[id] {
			t.Fatalf("members %d and %d out of the tree's leaf order", ids[i-1], id)
		}
		for j, v := range pts[id] {
			if img.Col(j)[i] != v {
				t.Fatalf("image position %d does not hold point %d", i, id)
			}
		}
	}
	cnt := 0
	for _, c := range counts {
		if c < 5 {
			cnt++
		}
	}
	// Cross-check against a direct count of dominators.
	direct := 0
	for i, p := range pts {
		dom := 0
		for j, o := range pts {
			if i != j && vec.Dominates(o, p) {
				dom++
			}
		}
		if dom < 5 {
			direct++
		}
	}
	if cnt != direct {
		t.Fatalf("the 5-skyband has %d members by the counts, want %d", cnt, direct)
	}
}

// trimWait is TrimBand waited out: it starts the build TrimBand would,
// waits for it to settle, and asks again.
func trimWait(c *Cache, k int) *Band {
	if b := c.TrimBand(k); b != nil {
		return b
	}
	waitEntry(c, k)
	return c.TrimBand(k)
}

// waitEntry waits until the build in flight for k, if any, has settled.
func waitEntry(c *Cache, k int) {
	c.mu.Lock()
	e := c.ents[k]
	c.mu.Unlock()
	if e == nil {
		return
	}
	e.mu.Lock()
	r := e.run
	e.mu.Unlock()
	if r != nil {
		<-r.done
	}
}

// TestCarryRules checks the two invalidation lemmas at the cache level
// against exact dominance counts, and the lifecycle edges around them: an
// entry with neither a band nor a build in flight is left behind
// uncounted, a rebind (clone) carries everything and counts nothing, and
// Peek never builds. TestCarryInFlight covers builds in flight.
func TestCarryRules(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randPoints(700, 3, rng)
	tr := rtree.Bulk(pts, nil)
	ks := []int{1, 4, 9, 20}
	dominators := func(p vec.Point) int {
		c := 0
		for _, o := range pts {
			if o != nil && vec.Dominates(o, p) {
				c++
			}
		}
		return c
	}
	c := NewCache(tr, nil)
	if c.Peek(4) != nil || c.Stats().Bands != 0 {
		t.Fatal("peek built a band")
	}
	for _, k := range ks {
		c.Band(k)
	}
	// An entry with nothing to carry: present in the map, no band, no
	// build in flight.
	c.ents[50] = &cacheEntry{}

	if nc := c.Rebind(tr.Clone()); nc == c || nc.Peek(50) != nil || nc.Stats().Bands != len(ks) {
		t.Fatalf("rebind carried %d bands, want the %d finished ones in a cache of its own", nc.Stats().Bands, len(ks))
	}
	if s := c.Counters().Snapshot(); s.Carried != 0 || s.Dropped != 0 {
		t.Fatalf("rebind counted as a mutation: %+v", s)
	}

	for trial := 0; trial < 200; trial++ {
		// Inserts: random points, and copies of band members (duplicates
		// do not dominate each other, so the copy has the member's count).
		p := randPoints(1, 3, rng)[0]
		if trial%4 == 0 {
			p = append(vec.Point(nil), pts[rng.Intn(len(pts))]...)
		}
		dom := dominators(p)
		before := c.Counters().Snapshot()
		nc := c.AfterInsert(tr, p) // t is only bound, not read, by the carry
		carried := 0
		for _, k := range ks {
			want := dom >= k
			if got := nc.Peek(k) != nil; got != want {
				t.Fatalf("insert with %d dominators: band k=%d carried=%t, want %t", dom, k, got, want)
			}
			if want {
				carried++
				if nc.Peek(k) != c.Peek(k) {
					t.Fatalf("band k=%d was copied, not carried", k)
				}
			}
		}
		after := c.Counters().Snapshot()
		if after.Carried-before.Carried != int64(carried) || after.Dropped-before.Dropped != int64(len(ks)-carried) {
			t.Fatalf("insert over %d finished bands counted carried=%d dropped=%d",
				len(ks), after.Carried-before.Carried, after.Dropped-before.Dropped)
		}
		if nc.Peek(50) != nil {
			t.Fatal("in-flight entry was carried")
		}

		// Deletes, ids beyond the count tables included.
		id := int32(rng.Intn(len(pts) + 5))
		dom = 1 << 30 // an id the bands never saw is in none of them
		if int(id) < len(pts) {
			dom = dominators(pts[id])
		}
		nc = c.AfterDelete(tr, id)
		for _, k := range ks {
			if got, want := nc.Peek(k) != nil, dom >= k; got != want {
				t.Fatalf("delete of id %d with %d dominators: band k=%d carried=%t, want %t", id, dom, k, got, want)
			}
		}
	}

	// A snapshot too small for k to prune holds no band for it.
	small := rtree.Bulk(pts[:fullBandFactor*9], nil)
	nc := c.AfterDelete(small, int32(len(pts)+1))
	if nc.Peek(9) != nil || nc.Peek(20) != nil || nc.Peek(4) == nil {
		t.Fatal("pass-through threshold not applied to the carried set")
	}
}

// TestTrimBandDeclines pins the self-limiting trim build: a band within
// n/trimBandFrac points is built and shared with Band; a larger one is
// abandoned, the decline is cached (no second attempt), carried across
// mutations by the band rules applied to its evidence — in an entry of the
// new snapshot's own, and only while it still exceeds the size limit —
// never handed out as a band, and completed on demand by a reader that
// needs the band whatever its size.
func TestTrimBandDeclines(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Anticorrelated-like: points near the plane x+y+z = 1.5, where almost
	// nobody dominates anybody, so every k-skyband is most of the dataset.
	n := 1600
	wide := make([]vec.Point, n)
	for i := range wide {
		a, b := rng.Float64(), rng.Float64()
		wide[i] = vec.Point{a, b, 1.5 - (a+b)/2 + 0.01*rng.Float64()}
	}
	// A tail every other point dominates keeps the band short of the whole
	// dataset, which Band would decline as whole.
	for i := 0; i < 16; i++ {
		wide = append(wide, vec.Point{2, 2, 2 + float64(i)})
	}
	n = len(wide)
	tr := rtree.Bulk(wide, nil)
	c := NewCache(tr, nil)
	limit := n / trimBandFrac
	if got := len(c.Band(8).ids); got == 0 || c.Band(8).Size() <= limit {
		t.Fatalf("fixture: 8-band holds %d points, need more than %d", c.Band(8).Size(), limit)
	}
	c = NewCache(tr, nil)
	if b := trimWait(c, 8); b != nil {
		t.Fatalf("TrimBand built a %d-point band past the %d-point limit", b.Size(), limit)
	}
	s := c.Counters().Snapshot()
	if s.Declines.TrimLimit != 1 || s.Builds != 0 || c.Stats().Bands != 0 || c.Peek(8) != nil {
		t.Fatalf("after one decline: %+v, stats %+v", s, c.Stats())
	}
	ev := c.ents[8].decline.Load()
	if ev == nil || ev.Size() != limit+1 || ev.K() != 8 {
		t.Fatalf("decline evidence: %+v", ev)
	}
	// Evidence members are true members with exact counts.
	for i, id := range ev.ids {
		cnt := ev.counts[i]
		dom := 0
		for _, o := range wide {
			if vec.Dominates(o, wide[id]) {
				dom++
			}
		}
		if int(cnt) != dom || dom >= 8 {
			t.Fatalf("evidence member %d: count %d, true %d", id, cnt, dom)
		}
	}
	if c.TrimBand(8) != nil || c.Counters().Snapshot().Pending != 0 {
		t.Fatal("a cached decline was retried")
	}
	if s := c.Counters().Snapshot(); s.Declines.TrimLimit != 1 || s.Builds != 0 {
		t.Fatalf("repeat requests rebuilt: %+v", s)
	}

	// Carry: a far-dominated insert and a non-evidence delete keep the
	// decline — its evidence, in an entry of the new cache's own, since a
	// declined entry can still be completed from one snapshot's tree —
	// deleting an evidence member drops it. None of it counts as a carried
	// or dropped band.
	var evID, otherID int32 = -1, -1
	for id, cnt := range countsByID(ev, len(wide)) {
		if cnt >= 0 && evID < 0 {
			evID = int32(id)
		}
		if cnt < 0 && otherID < 0 {
			otherID = int32(id)
		}
	}
	carriedDecline := func(nc *Cache) bool {
		e := nc.ents[8]
		return e != nil && e != c.ents[8] && e.decline.Load() == ev && e.band.Load() == nil
	}
	if nc := c.AfterInsert(tr, vec.Point{9, 9, 9}); !carriedDecline(nc) || nc.TrimBand(8) != nil {
		t.Fatal("dominated insert dropped the decline")
	}
	if nc := c.AfterDelete(tr, otherID); !carriedDecline(nc) {
		t.Fatal("non-evidence delete dropped the decline")
	}
	if nc := c.Rebind(tr.Clone()); !carriedDecline(nc) {
		t.Fatal("rebind dropped the decline")
	}
	if nc := c.AfterDelete(tr, evID); nc.ents[8] != nil {
		t.Fatal("evidence delete carried the decline")
	}
	if nc := c.AfterInsert(tr, vec.Point{0, 0, 0}); nc.ents[8] != nil {
		t.Fatal("dominating insert carried the decline")
	}
	// A dataset that outgrew the evidence (limit+1 members no longer exceed
	// n/trimBandFrac) gets its build attempted again.
	grown := rtree.Bulk(append(append([]vec.Point(nil), wide...), randPoints(trimBandFrac, 3, rng)...), nil)
	if nc := c.AfterInsert(grown, vec.Point{9, 9, 9}); nc.ents[8] != nil {
		t.Fatal("a decline outlived the size limit it was measured against")
	}
	if s := c.Counters().Snapshot(); s.Carried != 0 || s.Dropped != 0 {
		t.Fatalf("declines counted as bands: %+v", s)
	}
	if s := c.Counters().Snapshot(); s.Declines.TrimLimit != 1 || s.Builds != 0 {
		t.Fatalf("carrying a decline rebuilt: %+v", s)
	}

	// Completing a declined entry stays inside its snapshot: delete a full-
	// band member the evidence does not know, complete the old cache's entry
	// from the old tree, and the new cache must still serve the band of the
	// new tree.
	whole := NewCache(tr, nil).Band(8)
	victim := int32(-1)
	for id, cnt := range countsByID(whole, len(wide)) {
		if cnt >= 0 && !ev.member(int32(id)) {
			victim = int32(id)
			break
		}
	}
	if victim < 0 {
		t.Fatal("fixture: every full-band member is in the evidence")
	}
	after := tr.Clone()
	if !after.Delete(wide[victim], victim) {
		t.Fatal("fixture: victim not deleted")
	}
	nc := c.Rebind(after).AfterDelete(after, victim)
	if nc.ents[8] == nil {
		t.Fatal("non-evidence member delete dropped the decline")
	}
	if old := c.Band(8); !old.member(victim) {
		t.Fatal("old snapshot's band must hold the point it still has")
	}
	got, scratch := nc.Band(8), NewCache(after, nil).Band(8)
	if got.member(victim) || got.Size() != scratch.Size() {
		t.Fatalf("band completed after the carry: %d points (victim member: %t), from scratch %d",
			got.Size(), got.member(victim), scratch.Size())
	}
	gotCounts, scratchCounts := countsByID(got, len(wide)), countsByID(scratch, len(wide))
	for id := range scratchCounts {
		if gotCounts[id] != scratchCounts[id] {
			t.Fatalf("carried-decline band: count[%d] = %d, from scratch %d", id, gotCounts[id], scratchCounts[id])
		}
	}

	// A reader that needs the band completes the declined entry; TrimBand
	// then serves what exists.
	full := c.Band(8)
	if full == nil || full.Full() || full.Size() <= limit {
		t.Fatalf("Band over a declined entry: %+v", full)
	}
	if c.TrimBand(8) != full || c.Peek(8) != full {
		t.Fatal("TrimBand must share the materialized band")
	}
	if s := c.Counters().Snapshot(); s.Builds != 2 || s.Declines.TrimLimit != 1 {
		t.Fatalf("completion counters (one build per snapshot): %+v", s)
	}

	// Uniform data: the band is small, TrimBand builds it and Band shares it.
	pts := randPoints(6000, 3, rng)
	c2 := NewCache(rtree.Bulk(pts, nil), nil)
	b := trimWait(c2, 8)
	if b == nil || b.Size() > len(pts)/trimBandFrac {
		t.Fatalf("uniform 8-band declined or oversized: %+v", b)
	}
	if c2.Band(8) != b {
		t.Fatal("Band rebuilt what TrimBand built")
	}
	want := 0
	for id, cnt := range countsByID(b, len(pts)) {
		dom := 0
		for _, o := range pts {
			if vec.Dominates(o, pts[id]) {
				dom++
			}
		}
		if (dom < 8) != (cnt >= 0) || (cnt >= 0 && int(cnt) != dom) {
			t.Fatalf("member %d counted %d, true dominators %d", id, cnt, dom)
		}
		if dom < 8 {
			want++
		}
	}
	if want != b.Size() {
		t.Fatalf("band size %d, want %d", b.Size(), want)
	}
}

// heldCounters returns a counter set whose background builds each wait for
// a value on the returned channel before running.
func heldCounters() (*Counters, chan<- struct{}) {
	gate := make(chan struct{})
	return NewCounters(func(fn func()) bool {
		go func() {
			<-gate
			fn()
		}()
		return true
	}), gate
}

// TestCarryInFlight carries a band build in flight across chains of steps
// — a clone, then a mutation, then another — and checks that when it
// finishes every later entry gets exactly what the carry rules give a
// finished band: the band itself across steps that leave it unchanged,
// nothing from the first step that changes it on, and the counters as if
// the band had been finished before the first step.
func TestCarryInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := randPoints(500, 3, rng)
	tr := rtree.Bulk(pts, nil)
	const k = 6
	ref := NewCache(tr, nil).Band(k)
	var member, other int32 = -1, -1
	for id := range pts {
		if ref.member(int32(id)) {
			member = int32(id)
		} else {
			other = int32(id)
		}
	}
	dominated, dominating := vec.Point{2, 2, 2}, vec.Point{0, 0, 0}
	for _, tc := range []struct {
		name             string
		steps            []func(*Cache) *Cache
		kept             []bool // after each step
		carried, dropped int64
	}{
		{"clone, dominated insert, non-member delete", []func(*Cache) *Cache{
			func(c *Cache) *Cache { return c.Rebind(tr.Clone()) },
			func(c *Cache) *Cache { return c.AfterInsert(tr, dominated) },
			func(c *Cache) *Cache { return c.AfterDelete(tr, other) },
		}, []bool{true, true, true}, 2, 0},
		{"member delete, then dominated insert", []func(*Cache) *Cache{
			func(c *Cache) *Cache { return c.AfterDelete(tr, member) },
			func(c *Cache) *Cache { return c.AfterInsert(tr, dominated) },
		}, []bool{false, false}, 0, 1},
		{"dominated insert, then dominating insert", []func(*Cache) *Cache{
			func(c *Cache) *Cache { return c.AfterInsert(tr, dominated) },
			func(c *Cache) *Cache { return c.AfterInsert(tr, dominating) },
		}, []bool{true, false}, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct, gate := heldCounters()
			c := NewCache(tr, ct)
			if c.TryBand(k) != nil {
				t.Fatal("a cold TryBand served a band")
			}
			caches := []*Cache{c}
			for _, step := range tc.steps {
				caches = append(caches, step(caches[len(caches)-1]))
			}
			if s := ct.Snapshot(); s.Pending != 1 || s.Carried+s.Dropped != 0 {
				t.Fatalf("steps waited for or judged the build: %+v", s)
			}
			gate <- struct{}{}
			waitEntry(c, k)
			band := c.Peek(k)
			if band == nil {
				t.Fatal("the build did not land")
			}
			for i, nc := range caches[1:] {
				waitEntry(nc, k)
				got := nc.Peek(k)
				if (got != nil) != tc.kept[i] || got != nil && got != band {
					t.Fatalf("step %d: band %p, want kept=%t (%p)", i, got, tc.kept[i], band)
				}
				if got == nil && nc.TryBand(k) != nil {
					t.Fatal("an empty entry served a band")
				}
			}
			if s := ct.Snapshot(); s.Carried != tc.carried || s.Dropped != tc.dropped || s.Builds != 1 {
				t.Fatalf("counters %+v, want carried=%d dropped=%d builds=1", s, tc.carried, tc.dropped)
			}
		})
	}
}

// TestWholeBandDeclined pins the whole decline: a finished band that kept
// every point is served pass-through, holds no tree of its own, counts a
// decline with reason whole and no build, is refused as a trim band, and
// is carried by a clone but not by a mutation.
func TestWholeBandDeclined(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pts := make([]vec.Point, 400)
	for i := range pts {
		a := rng.Float64()
		pts[i] = vec.Point{a, 1 - a} // an antichain: nobody dominates anybody
	}
	tr := rtree.Bulk(pts, nil)
	c := NewCache(tr, nil)
	if b := c.Band(8); !b.Full() || b.Tree() != tr {
		t.Fatalf("whole band not served pass-through: full=%t", b.Full())
	}
	s := c.Stats()
	if s.Declines.Whole != 1 || s.Builds != 0 || s.Bands != 0 || c.Peek(8) != nil {
		t.Fatalf("whole decline: %+v", s)
	}
	if b := c.TryBand(8); b == nil || !b.Full() || c.TrimBand(8) != nil {
		t.Fatal("whole decline must serve pass-through and refuse the trim")
	}
	if nc := c.Rebind(tr.Clone()); nc.ents[8] != c.ents[8] || !nc.TryBand(8).Full() {
		t.Fatal("a clone dropped the whole decline")
	}
	if nc := c.AfterInsert(tr, vec.Point{2, 2}); nc.ents[8] != nil {
		t.Fatal("a mutation carried the whole decline")
	}
	if s := c.Stats(); s.Declines.Whole != 1 || s.Pending != 0 {
		t.Fatalf("reads of a whole decline rebuilt it: %+v", s)
	}
}
