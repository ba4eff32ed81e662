package wqrtq

// Carry differential suite: Clone, Insert and Delete hand the next snapshot
// every materialized k-skyband band (and every cell grid built over one)
// that the step provably leaves unchanged. After every mutation of every
// stream below, each band the index serves — carried or rebuilt — must be
// indistinguishable from one computed from scratch on the same tree (member
// ids, Size, the dominance count of every id in the whole id space), and
// ReverseTopK must agree with the naive oracle. The edge cases the two
// carry rules turn on are forced by construction in TestCarryEdgeCases.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

// carryKs are the band parameters kept materialized through the streams:
// the skyline, two query-sized bands, a sampling trim band and the rank
// band.
var carryKs = []int{1, 3, 10, 16, skyband.DefaultRankBand}

// bandMembers returns the sorted record ids stored in the band's tree.
func bandMembers(b *skyband.Band) []int32 {
	var ids []int32
	b.Tree().Visit(nil, func(id int32, _ vec.Point) { ids = append(ids, id) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkBands compares the band ix serves for each k with a band computed
// from scratch over ix's tree.
func checkBands(t *testing.T, label string, ix *Index, ks []int) {
	t.Helper()
	fresh := skyband.NewCache(ix.tree, nil)
	for _, k := range ks {
		got, want := ix.band(k), fresh.Band(k)
		if got.Full() != want.Full() || got.Size() != want.Size() {
			t.Fatalf("%s k=%d: served band full=%t size=%d, from scratch full=%t size=%d",
				label, k, got.Full(), got.Size(), want.Full(), want.Size())
		}
		if got.Full() {
			if got.Tree() != ix.tree {
				t.Fatalf("%s k=%d: pass-through band serves a foreign tree", label, k)
			}
			continue
		}
		if g, w := bandMembers(got), bandMembers(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s k=%d: member ids differ\n got %v\nwant %v", label, k, g, w)
		}
		// Equal counts mean equal bound-skybands for every bound <= k.
		for id := int32(0); int(id) < ix.NumIDs()+2; id++ {
			if cg, cw := bandCount(got, id), bandCount(want, id); cg != cw {
				t.Fatalf("%s k=%d: id %d has count %d, from scratch %d", label, k, id, cg, cw)
			}
		}
	}
}

// checkReverseTopK compares ix.ReverseTopK with the naive oracle over the
// live points.
func checkReverseTopK(t *testing.T, label string, ix *Index, rng *rand.Rand, ks ...int) {
	t.Helper()
	d := ix.Dim()
	W := make([][]float64, 6)
	Ww := make([]vec.Weight, len(W))
	for j := range W {
		W[j] = sample.RandSimplex(rng, d)
		Ww[j] = W[j]
	}
	live, _ := ix.livePoints()
	q := append([]float64(nil), live[rng.Intn(len(live))]...)
	for j := range q {
		q[j] *= 0.5 + rng.Float64()
	}
	for _, k := range ks {
		got, err := ix.ReverseTopK(W, q, k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := rtopk.BichromaticNaive(live, Ww, q, k)
		if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: ReverseTopK %v, naive %v", label, k, got, want)
		}
	}
}

// bandCount is id's dominance count in b, or -1 when id is no member
// (count >= b.K(), or an id allocated after b was computed).
func bandCount(b *skyband.Band, id int32) int32 {
	ids, counts := b.Members()
	if i := slices.Index(ids, id); i >= 0 {
		return counts[i]
	}
	return -1
}

// bands returns ix's band for each k.
func bands(ix *Index, ks []int) map[int]*skyband.Band {
	m := make(map[int]*skyband.Band, len(ks))
	for _, k := range ks {
		m[k] = ix.band(k)
	}
	return m
}

// heldBand returns ix's band for k and whether its cache held it: a held
// band comes back without a build, and one the cache dropped (or never
// had) builds exactly once.
func heldBand(t *testing.T, ix *Index, k int) (*skyband.Band, bool) {
	t.Helper()
	builds := ix.SkybandStats().Builds
	b := ix.band(k)
	n := ix.SkybandStats().Builds - builds
	if n > 1 {
		t.Fatalf("k=%d: one band read built %d bands", k, n)
	}
	return b, n == 0
}

func toRows(ps []vec.Point) [][]float64 {
	rows := make([][]float64, len(ps))
	for i, p := range ps {
		rows[i] = p
	}
	return rows
}

func TestCarryDifferential(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for si, shape := range diffShapes {
		for _, d := range []int{3, 5} {
			for _, viaClone := range []bool{false, true} {
				name := fmt.Sprintf("%s/d=%d/clone=%t", shape.name, d, viaClone)
				t.Run(name, func(t *testing.T) {
					seed := int64(7000 + 100*si + d)
					ix, err := NewIndex(toRows(shape.gen(300, d, seed).Points))
					if err != nil {
						t.Fatal(err)
					}
					extra := shape.gen(steps, d, seed+1).Points
					rng := rand.New(rand.NewSource(seed + 2))
					var lastInserted int
					identical, rebuilt := 0, 0
					for step := 0; step < steps; step++ {
						for _, k := range carryKs {
							ix.band(k) // materialize what the mutation may carry
						}
						grid := ix.cellGrid(ix.band(3)) // nil at d=5
						before := bands(ix, carryKs)
						next := ix
						if viaClone {
							next = ix.Clone()
						}
						member := func() int {
							ids := bandMembers(next.band(carryKs[rng.Intn(len(carryKs))]))
							return int(ids[rng.Intn(len(ids))])
						}
						var op string
						changed := true
						switch r := rng.Intn(100); {
						case r < 40:
							op = "insert"
							lastInserted, err = next.Insert(extra[step])
						case r < 50:
							op = "insert duplicate of a member"
							lastInserted, err = next.Insert(append([]float64(nil), next.Point(member())...))
						case r < 55:
							op = "insert dominating a member"
							p := append([]float64(nil), next.Point(member())...)
							for j := range p {
								p[j] *= 0.5
							}
							lastInserted, err = next.Insert(p)
						case r < 70:
							op = "delete member"
							changed, err = next.Delete(member())
						case r < 90:
							op = "delete random id"
							changed, err = next.Delete(rng.Intn(next.NumIDs()))
						default:
							op = "delete last inserted id"
							changed, err = next.Delete(lastInserted)
						}
						if err != nil {
							t.Fatalf("step %d %s: %v", step, op, err)
						}
						label := fmt.Sprintf("step %d (%s)", step, op)
						carried := make(map[int]bool, len(carryKs))
						for _, k := range carryKs {
							b, held := heldBand(t, next, k)
							switch {
							case b.Full():
								// A band that kept every point is served
								// pass-through: there is no band to carry.
								continue
							case held && b != before[k]:
								t.Fatalf("%s k=%d: cache holds a band that is neither carried nor absent", label, k)
							case !changed && !held:
								t.Fatalf("%s k=%d: a refused mutation dropped a band", label, k)
							case !changed:
							case !held:
								rebuilt++
							default:
								identical++
							}
							carried[k] = held
						}
						// A grid follows its basis band, pointer-identical.
						if carried[3] && next.cellGrid(next.band(3)) != grid {
							t.Fatalf("%s: band k=3 was carried but its grid was not", label)
						}
						checkBands(t, label, next, carryKs)
						// k=10 rebuilds a second grid whenever its band was
						// dropped, which dominates the AC streams: sample it.
						if checkReverseTopK(t, label, next, rng, 3); step%8 == 0 {
							checkReverseTopK(t, label, next, rng, 10)
						}
						if viaClone {
							// The superseded snapshot keeps serving its own point set.
							if step%10 == 0 {
								checkBands(t, label+" parent", ix, carryKs)
							}
							ix = next
						}
					}
					if err := ix.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if identical == 0 || rebuilt == 0 {
						t.Fatalf("stream exercised only one side: %d bands carried, %d dropped", identical, rebuilt)
					}
					ct := ix.SkybandStats()
					if ct.Carried != int64(identical) || ct.Dropped != int64(rebuilt) {
						t.Fatalf("counters carried=%d dropped=%d, observed %d and %d", ct.Carried, ct.Dropped, identical, rebuilt)
					}
					if d <= 4 && ix.CellIndexStats().Lookups == 0 {
						t.Fatal("the grid arm made no cell lookup")
					}
				})
			}
		}
	}
}

// carryIndex builds a UN index with all carryKs bands materialized.
func carryIndex(t *testing.T, n, d int, seed int64) *Index {
	t.Helper()
	ix, err := NewIndex(toRows(dataset.Independent(n, d, seed).Points))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range carryKs {
		if ix.band(k).Full() {
			t.Fatalf("k=%d is pass-through at n=%d", k, n)
		}
	}
	return ix
}

// dominators counts the live points of ix dominating p.
func dominators(ix *Index, p vec.Point) int {
	live, _ := ix.livePoints()
	c := 0
	for _, m := range live {
		if vec.Dominates(m, p) {
			c++
		}
	}
	return c
}

func TestCarryEdgeCases(t *testing.T) {
	// memberWithCount finds a member of the widest band whose dominance
	// count c splits carryKs: some k <= c (must carry a duplicate of it)
	// and some k > c (must drop).
	memberWithCount := func(t *testing.T, ix *Index, lo, hi int) int {
		t.Helper()
		for _, id := range bandMembers(ix.band(skyband.DefaultRankBand)) {
			if c := dominators(ix, ix.Point(int(id))); c >= lo && c < hi {
				return int(id)
			}
		}
		t.Fatalf("no band member with dominance count in [%d, %d)", lo, hi)
		return -1
	}
	// expect asserts which ks kept their band pointer across a mutation.
	expect := func(t *testing.T, ix *Index, before map[int]*skyband.Band, carried func(k int) bool) {
		t.Helper()
		for _, k := range carryKs {
			got, held := heldBand(t, ix, k)
			if carried(k) && (!held || got != before[k]) {
				t.Fatalf("k=%d: band should have been carried", k)
			}
			if !carried(k) && held {
				t.Fatalf("k=%d: band should have been dropped", k)
			}
		}
		checkBands(t, "after", ix, carryKs)
	}

	t.Run("duplicate of a member splits the ks at its count", func(t *testing.T) {
		ix := carryIndex(t, 600, 3, 11)
		id := memberWithCount(t, ix, 3, 10)
		c := dominators(ix, ix.Point(id))
		before := bands(ix, carryKs)
		// Duplicates do not dominate each other: the copy has exactly the
		// original's c dominators, so it joins every band with k > c and
		// leaves every band with k <= c alone.
		if _, err := ix.Insert(append([]float64(nil), ix.Point(id)...)); err != nil {
			t.Fatal(err)
		}
		expect(t, ix, before, func(k int) bool { return k <= c })
		st := ix.SkybandStats()
		if st.Carried+st.Dropped != int64(len(carryKs)) || st.Carried == 0 || st.Dropped == 0 {
			t.Fatalf("one mutation over %d bands counted carried=%d dropped=%d", len(carryKs), st.Carried, st.Dropped)
		}
	})

	t.Run("insert that joins the band and evicts members", func(t *testing.T) {
		ix := carryIndex(t, 600, 3, 12)
		before := bands(ix, carryKs)
		sizes := map[int]int{}
		for k, b := range before {
			sizes[k] = b.Size()
		}
		if _, err := ix.Insert([]float64{1e-9, 1e-9, 1e-9}); err != nil {
			t.Fatal(err)
		}
		expect(t, ix, before, func(int) bool { return false })
		if got := ix.band(1).Size(); got != 1 || sizes[1] <= 1 {
			t.Fatalf("skyline size %d → %d, want a collapse to the one dominating point", sizes[1], got)
		}
	})

	t.Run("delete of a member drops exactly the bands it is in", func(t *testing.T) {
		ix := carryIndex(t, 600, 3, 13)
		id := memberWithCount(t, ix, 3, 10)
		c := dominators(ix, ix.Point(id))
		before := bands(ix, carryKs)
		if ok, err := ix.Delete(id); !ok || err != nil {
			t.Fatalf("delete: %t, %v", ok, err)
		}
		expect(t, ix, before, func(k int) bool { return k <= c })
	})

	t.Run("delete of an id inserted after the bands were built", func(t *testing.T) {
		ix := carryIndex(t, 600, 3, 14)
		before := bands(ix, carryKs)
		id, err := ix.Insert([]float64{0.999, 0.999, 0.999}) // dominated by nearly everything
		if err != nil {
			t.Fatal(err)
		}
		expect(t, ix, before, func(int) bool { return true })
		// The id lies beyond every carried band's count table.
		if ok, err := ix.Delete(id); !ok || err != nil {
			t.Fatalf("delete: %t, %v", ok, err)
		}
		expect(t, ix, before, func(int) bool { return true })
		if st := ix.SkybandStats(); st.Builds != int64(len(carryKs)) || st.Dropped != 0 {
			t.Fatalf("two non-member mutations cost builds=%d dropped=%d", st.Builds, st.Dropped)
		}
	})

	t.Run("n shrinking through fullBandFactor*k", func(t *testing.T) {
		// fullBandFactor = 4: k=10 prunes while n > 40.
		ix, err := NewIndex(toRows(dataset.Independent(43, 2, 15).Points))
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{3, 10}
		for _, k := range ks {
			if ix.band(k).Full() {
				t.Fatalf("k=%d already pass-through at n=%d", k, ix.Len())
			}
		}
		for ix.Len() > 38 {
			// Delete non-members of the 10-band only, so nothing but the
			// shrinking n can invalidate it.
			b10 := ix.band(10)
			keep := b10
			if b10.Full() {
				keep = ix.band(3)
			}
			victim := -1
			for id := 0; id < ix.NumIDs(); id++ {
				if ix.Point(id) != nil && bandCount(keep, int32(id)) < 0 {
					victim = id
					break
				}
			}
			if victim < 0 {
				t.Fatal("ran out of non-members")
			}
			if _, err := ix.Delete(victim); err != nil {
				t.Fatal(err)
			}
			b, held := heldBand(t, ix, 10)
			if want := ix.Len() > 40; b.Full() == want || (want && (!held || b != b10)) {
				t.Fatalf("n=%d: 10-band held=%t full=%t, want held=%t", ix.Len(), held && b == b10, b.Full(), want)
			}
			if _, held := heldBand(t, ix, 3); !held {
				t.Fatalf("n=%d: 3-band dropped by a non-member delete", ix.Len())
			}
			checkBands(t, fmt.Sprintf("n=%d", ix.Len()), ix, ks)
		}
		if !ix.band(10).Full() {
			t.Fatal("k=10 should be served pass-through at n=38")
		}
	})

	t.Run("clone mutated, then parent mutated in place", func(t *testing.T) {
		parent := carryIndex(t, 600, 3, 16)
		clone := parent.Clone()
		if clone.sky == parent.sky {
			t.Fatal("clone shares its parent's cache objects")
		}
		for k, b := range bands(parent, carryKs) {
			if got, held := heldBand(t, clone, k); !held || got != b {
				t.Fatalf("k=%d: clone did not start with the parent's band", k)
			}
		}
		if st := parent.SkybandStats(); st.Carried != 0 || st.Dropped != 0 {
			t.Fatalf("a clone is not a mutation: carried=%d dropped=%d", st.Carried, st.Dropped)
		}
		if _, err := clone.Insert([]float64{1e-9, 1e-9, 1e-9}); err != nil { // drops every clone band
			t.Fatal(err)
		}
		member := int(bandMembers(parent.band(1))[0])
		if ok, err := parent.Delete(member); !ok || err != nil { // drops every parent band
			t.Fatalf("delete: %t, %v", ok, err)
		}
		// Both sides rebuild lazily, each over its own tree.
		checkBands(t, "clone", clone, carryKs)
		checkBands(t, "parent", parent, carryKs)
		if clone.band(1).Size() != 1 || parent.band(1).Size() == 1 {
			t.Fatal("the two sides' skylines should have diverged")
		}
		// A k first requested after the split builds over the right tree.
		checkBands(t, "clone, new k", clone, []int{5})
		checkBands(t, "parent, new k", parent, []int{5})
		rng := rand.New(rand.NewSource(17))
		checkReverseTopK(t, "clone", clone, rng, 3, 10)
		checkReverseTopK(t, "parent", parent, rng, 3, 10)
	})

	t.Run("grid follows its basis band", func(t *testing.T) {
		ix := carryIndex(t, 600, 3, 18)
		g3, g10 := ix.cellGrid(ix.band(3)), ix.cellGrid(ix.band(10))
		if g3 == nil || g10 == nil {
			t.Fatal("grids did not build")
		}
		// A clone starts with every band, grid included: it builds and
		// counts nothing.
		clone := ix.Clone()
		if clone.cellGrid(clone.band(3)) != g3 || clone.cellGrid(clone.band(10)) != g10 {
			t.Fatal("the clone's bands did not bring their grids")
		}
		if st := clone.CellIndexStats(); st.Builds != 2 || st.Grids != 2 || st.Fallbacks != 0 {
			t.Fatalf("clone: %+v", st)
		}
		id := memberWithCount(t, ix, 3, 10) // in the 10-band, not the 3-band
		if ok, err := ix.Delete(id); !ok || err != nil {
			t.Fatalf("delete: %t, %v", ok, err)
		}
		b3, held3 := heldBand(t, ix, 3)
		if _, held10 := heldBand(t, ix, 10); !held3 || held10 {
			t.Fatal("deleting a 10-band member must carry the 3-band and drop the 10-band")
		}
		if ix.cellGrid(b3) != g3 {
			t.Fatal("the carried 3-band returned another grid")
		}
		if st := ix.CellIndexStats(); st.Grids != 1 || st.Builds != 2 {
			t.Fatalf("after deleting a 10-band member: %+v", st)
		}
		g := ix.cellGrid(ix.band(10))
		if g == nil || g == g10 || ix.cellGrid(ix.band(10)) != g {
			t.Fatal("grid k=10 was not rebuilt once over the rebuilt band")
		}
		if st := ix.CellIndexStats(); st.Builds != 3 || st.Grids != 2 {
			t.Fatalf("builds = %d, want the two originals plus one rebuild: %+v", st.Builds, st)
		}
		if clone.cellGrid(clone.band(10)) != g10 {
			t.Fatal("a mutation of the parent reached the clone's grid")
		}
	})
}

// TestCarryConcurrentLazyBuild is the -race hammer for the carry: readers
// lazily build bands, and grids in the bands' slots, on published
// snapshots while a writer keeps cloning the newest one, mutating the
// clone and publishing it, so Rebind and AfterInsert/AfterDelete run
// against bands whose builds, or whose grids' builds, are still in flight.
// Every answer is checked against the naive oracle of the snapshot it was
// computed on.
func TestCarryConcurrentLazyBuild(t *testing.T) {
	const d = 3
	ix, err := NewIndex(toRows(dataset.Independent(400, d, 61).Points))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	W := make([][]float64, 6)
	Ww := make([]vec.Weight, len(W))
	for j := range W {
		W[j] = sample.RandSimplex(rng, d)
		Ww[j] = W[j]
	}
	q := []float64{0.2, 0.1, 0.3}

	var mu sync.Mutex // guards cur; Clone and mutation are serialized by the single writer
	cur := ix
	load := func() *Index {
		mu.Lock()
		defer mu.Unlock()
		return cur
	}
	done := make(chan struct{})
	// answered paces the writer on the readers (one mutation per answered
	// query at most), so bands get materialized between mutations and the
	// carry has something to carry; a reader never blocks on it.
	answered := make(chan struct{}, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := load()
				k := 1 + (g+i)%6
				got, err := snap.ReverseTopK(W, q, k)
				if err != nil {
					t.Error(err)
					return
				}
				live, _ := snap.livePoints()
				if want := rtopk.BichromaticNaive(live, Ww, q, k); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Errorf("epoch %d k=%d: ReverseTopK %v, naive %v", snap.Epoch(), k, got, want)
					return
				}
				_, _ = snap.Rank(W[0], q) // the rank band
				_, _ = snap.SkybandStats(), snap.CellIndexStats()
				select {
				case answered <- struct{}{}:
				default:
				}
			}
		}(g)
	}
	write := func() error {
		for step := 0; step < 150; step++ {
			<-answered
			next := load().Clone()
			if step%3 == 2 {
				if _, err := next.Delete(rng.Intn(next.NumIDs())); err != nil {
					return err
				}
			} else if _, err := next.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
				return err
			}
			mu.Lock()
			cur = next
			mu.Unlock()
		}
		return nil
	}
	err = write()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	final := load()
	checkBands(t, "final", final, []int{1, 2, 3, 4, 5, 6, skyband.DefaultRankBand})
	if st := final.SkybandStats(); st.Carried == 0 {
		t.Fatalf("hammer never carried a band: %+v", st)
	}
	if st := final.CellIndexStats(); st.Builds == 0 || st.Lookups == 0 {
		t.Fatalf("hammer never built or read a grid: %+v", st)
	}
}

// refinedAnswer is what a why-not answer's refinement stages decide: the
// reverse top-k split and the three suggestions. (RTA statistics describe
// the route, and explanations may order score-tied points differently.)
type refinedAnswer struct {
	Result, Missing []int
	MQP             QueryRefinement
	MWK             PreferenceRefinement
	MQWK            FullRefinement
}

func refinedOf(a *WhyNotAnswer) refinedAnswer {
	return refinedAnswer{a.Result, a.Missing, a.ModifiedQuery, a.ModifiedPreferences, a.ModifiedAll}
}

// checkRefinements answers WhyNot and ModifyAll for (q, k, W) on ix and on
// a skyOff clone of it — core's nil-Source oracle over the same tree — and
// requires equal answers.
func checkRefinements(t *testing.T, label string, ix *Index, q []float64, k int, W [][]float64, opts Options) {
	t.Helper()
	oracle := ix.Clone()
	oracle.skyOff = true
	got, err := ix.WhyNot(q, k, W, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// The answer started the trim-band builds it found missing: settle
	// them, so that ModifyAll reads what the snapshot holds.
	settle(ix)
	want, err := oracle.WhyNot(q, k, W, opts)
	if err != nil {
		t.Fatalf("%s oracle: %v", label, err)
	}
	if !reflect.DeepEqual(refinedOf(got), refinedOf(want)) {
		t.Fatalf("%s: WhyNot\n got %+v\nwant %+v", label, refinedOf(got), refinedOf(want))
	}
	gotMA, err := ix.ModifyAll(q, k, W, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantMA, err := oracle.ModifyAll(q, k, W, opts)
	if err != nil {
		t.Fatalf("%s oracle: %v", label, err)
	}
	if !reflect.DeepEqual(gotMA, wantMA) {
		t.Fatalf("%s: ModifyAll\n got %+v\nwant %+v", label, gotMA, wantMA)
	}
}

// TestCarryWhyNot runs why-not refinements across Insert and Delete, on
// the index itself and through clones: every mutation must leave the next
// why-not with the trim bands of the tree it walks (carry), so its answers
// equal the skyOff oracle's over that tree. The mutations target q's
// candidate universe — points entering it below q, members of it deleted,
// points dominating q — and each snapshot answers once before it mutates,
// so a stale band the refinement read would be there to be reused.
func TestCarryWhyNot(t *testing.T) {
	for _, d := range []int{3, 5} {
		for _, viaClone := range []bool{false, true} {
			t.Run(fmt.Sprintf("d=%d/clone=%t", d, viaClone), func(t *testing.T) {
				seed := int64(8100 + d)
				ds := dataset.Independent(600, d, seed)
				ix, err := NewIndex(toRows(ds.Points))
				if err != nil {
					t.Fatal(err)
				}
				wl, err := dataset.MakeWhyNot(ds, 5, 30, 1, seed)
				if err != nil {
					t.Fatal(err)
				}
				q, k, W := []float64(wl.Q), wl.K, [][]float64{wl.Wm[0]}
				opts := Options{SampleSize: 16, Seed: seed}
				rng := rand.New(rand.NewSource(seed))
				checkRefinements(t, "initial", ix, q, k, W, opts)
				for step := 0; step < 12; step++ {
					next := ix
					if viaClone {
						next = ix.Clone()
					}
					var op string
					switch step % 4 {
					case 0: // a point below q on one coordinate: it joins the universe
						op = "insert incomparable"
						p := append([]float64(nil), q...)
						for j := range p {
							p[j] += 0.05 * rng.Float64()
						}
						p[rng.Intn(d)] *= 0.5
						_, err = next.Insert(p)
					case 1: // a member of the universe
						op = "delete candidate"
						cands, _ := dominance.Candidates(next.tree, q)
						_, err = next.Delete(int(cands[rng.Intn(len(cands))].ID))
					case 2: // a point dominating q
						op = "insert dominating"
						p := append([]float64(nil), q...)
						for j := range p {
							p[j] *= 0.9
						}
						_, err = next.Insert(p)
					default:
						op = "delete random id"
						_, err = next.Delete(rng.Intn(next.NumIDs()))
					}
					if err != nil {
						t.Fatalf("step %d %s: %v", step, op, err)
					}
					checkRefinements(t, fmt.Sprintf("step %d (%s)", step, op), next, q, k, W, opts)
					ix = next
				}
				// Membership is a count descent over the full tree: no
				// why-not builds the k-band or a grid, or reads one.
				if st := ix.CellIndexStats(); ix.sky.Peek(k) != nil || st.Builds != 0 || st.Lookups != 0 {
					t.Fatalf("a why-not built the %d-band or a grid: %+v", k, st)
				}
			})
		}
	}
}

// TestWhyNotConcurrentLazyBuild has several goroutines ask a family of
// snapshots their first why-not at once, so the trim bands the refinements
// read are built in the background under contention (run under -race),
// and requires every answer to equal the skyOff oracle's.
func TestWhyNotConcurrentLazyBuild(t *testing.T) {
	const d = 3
	ds := dataset.Independent(500, d, 71)
	ix, err := NewIndex(toRows(ds.Points))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := dataset.MakeWhyNot(ds, 5, 25, 1, 72)
	if err != nil {
		t.Fatal(err)
	}
	q, k, W := []float64(wl.Q), wl.K, [][]float64{wl.Wm[0]}
	opts := Options{SampleSize: 12, Seed: 3}
	rng := rand.New(rand.NewSource(73))
	// Clone family: each snapshot diverges by one mutation, all made
	// before the concurrent phase, per the serialization contract.
	snaps := []*Index{ix}
	for i := 0; i < 3; i++ {
		c := snaps[len(snaps)-1].Clone()
		p := append([]float64(nil), q...)
		p[rng.Intn(d)] *= 0.5
		if _, err := c.Insert(p); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, c)
	}
	wants := make([]refinedAnswer, len(snaps))
	for i, snap := range snaps {
		oracle := snap.Clone()
		oracle.skyOff = true
		a, err := oracle.WhyNot(q, k, W, opts)
		if err != nil {
			t.Fatal(err)
		}
		if wants[i] = refinedOf(a); len(a.Missing) != 1 {
			t.Fatalf("snapshot %d: the why-not vector is not missing, so no refinement runs", i)
		}
	}
	var wg sync.WaitGroup
	for i, snap := range snaps {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a, err := snap.WhyNot(q, k, W, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := refinedOf(a); !reflect.DeepEqual(got, wants[i]) {
					t.Errorf("snapshot %d: WhyNot\n got %+v\nwant %+v", i, got, wants[i])
				}
			}()
		}
	}
	wg.Wait()
}
