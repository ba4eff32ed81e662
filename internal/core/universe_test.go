package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

// naiveCounts returns every point's exact dominance count, indexed by
// position (the record id of a tree bulk-loaded without ids), by the
// naive quadratic scan.
func naiveCounts(pts []vec.Point) []int32 {
	counts := make([]int32, len(pts))
	for _, m := range dominance.KSkybandNaive(pts, len(pts)+1) {
		counts[m.Index] = int32(m.Count)
	}
	return counts
}

// imageOf returns the image of the points of tr counted below bound, with
// counts indexed by record id, in tr's depth-first leaf order: what a band
// computed on tr holds.
func imageOf(tr *rtree.Tree, counts []int32, bound int) BandImage {
	img := BandImage{Coords: new(kernel.Coords)}
	img.Coords.Reset(tr.Dim())
	tr.Visit(nil, func(id int32, p vec.Point) {
		if c := counts[id]; c < int32(bound) {
			img.Coords.Append(p)
			img.IDs = append(img.IDs, id)
			img.Counts = append(img.Counts, c)
		}
	})
	return img
}

// bandSource is a Source whose Band hook serves the images of bands
// computed on tr from the exact counts, so the universe's trim runs
// without internal/skyband.
func bandSource(tr *rtree.Tree, counts []int32) *Source {
	return &Source{
		Kernel: kernel.NewCounters(),
		Routes: new(RouteCounters),
		Band: func(bound int) (BandImage, bool) {
			return imageOf(tr, counts, bound), true
		},
	}
}

// universeDims are the dimensionalities the universe tests run at: the
// kernel's unrolled sweeps (2-4), its generic-d tails just past them, and
// the paper's real datasets (Household d = 6, NBA d = 13).
var universeDims = []int{2, 3, 4, 5, 6, 7, 8, 13}

// TestUniverseMatchesClassify drives the universe's building blocks against
// the definitions they replace, on random instances at every universeDims
// dimensionality and data shape: for query points inside the sample box
// (trusted: only the maybe list is examined, through the bitmap index) and
// outside it (untrusted: full scan, no trim), the D/I split equals
// dominance.Classify's — sizes, D members, and the i-th incomparable point
// for every i — and every rank the evaluator reports, for the why-not
// vectors (binary searches of the below-q lists) and for samples through
// the capped band-trimmed sweep, equals Sets.Rank wherever the sample loop
// would keep it and exceeds k'max wherever it would not. The trusted points
// include the box's corners and points sharing coordinates with candidates,
// so buckets tie and the exact tests run; every fifth case has a
// zero-width box coordinate.
func TestUniverseMatchesClassify(t *testing.T) {
	trimmedCases, trimmedWide, flatCases := 0, 0, 0
	dimsRun := map[int]bool{}
	defer func() {
		if t.Failed() {
			return
		}
		if trimmedCases < 6 || trimmedWide < 2 || flatCases < 2 {
			t.Fatalf("fixtures reached the trim %d times (%d at d > 4) and a zero-width box coordinate %d times; want all exercised", trimmedCases, trimmedWide, flatCases)
		}
		for _, d := range universeDims {
			if !dimsRun[d] {
				t.Fatalf("no fixture ran at d = %d", d)
			}
		}
	}()
	// 8 dimensionalities x 3 shapes, each pairing once.
	for caseIdx := 0; caseIdx < 24; caseIdx++ {
		rng := rand.New(rand.NewSource(int64(300 + caseIdx)))
		d := universeDims[caseIdx%len(universeDims)]
		var ds *dataset.Dataset
		switch caseIdx % 3 {
		case 0:
			ds = dataset.Independent(1500, d, int64(caseIdx))
		case 1:
			ds = dataset.Anticorrelated(1500, d, int64(caseIdx))
		default:
			ds = dataset.Correlated(1500, d, int64(caseIdx))
		}
		tr := ds.Tree()
		// q: synthesized at a small rank under three nearby vectors, so k0
		// is small and the k0-skyband trims the universe (the more
		// dimensions, the smaller it has to be); qMin below it.
		rank := 8 + rng.Intn(40)
		if d > 4 {
			rank = 4 + rng.Intn(6)
		}
		wl, err := dataset.MakeWhyNot(ds, 3, rank, 3, int64(caseIdx))
		if err != nil {
			continue
		}
		q, wm := wl.Q, wl.Wm
		qMin := vec.Clone(q)
		for j := range q {
			qMin[j] = q[j] * rng.Float64()
		}
		if caseIdx%5 == 0 {
			qMin[0] = q[0] * 1.5 // a q_min coordinate above q: the box clamps it to zero width
		}
		cands, _ := dominance.Candidates(tr, q)
		if len(cands) < trimMinUniverse {
			continue
		}
		dimsRun[d] = true
		counts := naiveCounts(ds.Points)
		src := bandSource(tr, counts)
		sc := getRankScratch()
		sc.candidates(tr, src, q, qMin, wm)
		u := &sc.uni
		if !sc.prepared {
			t.Fatalf("case %d: no universe prepared", caseIdx)
		}
		if u.trimmed {
			trimmedCases++
			if d > 4 {
				trimmedWide++
			}
		}
		if !(u.hi[0] > u.lo[0]) {
			flatCases++
		}
		for i, w := range wm {
			// The below-q list: every candidate score strictly below q's.
			var want []float64
			fq := vec.Score(w, q)
			for _, r := range cands {
				if s := vec.Score(w, r.Point); s < fq {
					want = append(want, s)
				}
			}
			slices.Sort(want)
			if !slices.Equal(u.below[i], want) {
				t.Fatalf("case %d: below-q list of wm[%d] has %d scores, want %d", caseIdx, i, len(u.below[i]), len(want))
			}
		}
		// k0 is k'max of Lemma 4: q's worst actual rank over wm.
		setsQ, wantK0 := dominance.Classify(cands, q), 0
		for _, w := range wm {
			wantK0 = max(wantK0, setsQ.Rank(w, q))
		}
		if u.k0 != wantK0 {
			t.Fatalf("case %d: k0 = %d, want %d", caseIdx, u.k0, wantK0)
		}
		if u.trimmed {
			// Every c-skyband's share of the universe is a prefix of trim.
			for c := 0; c <= u.k0; c++ {
				want := 0
				for _, r := range cands {
					if int(counts[r.ID]) < c {
						want++
					}
				}
				if int(u.cum[c]) != want {
					t.Fatalf("case %d: cum[%d] = %d, want %d", caseIdx, c, u.cum[c], want)
				}
			}
			// Every le point — D(q) — is in the trim, in its count's run.
			for l, m := range u.le {
				pos := u.maybe[m]
				cnt, tp := counts[cands[pos].ID], u.trimOf[l]
				if u.leIDs[l] != cands[pos].ID {
					t.Fatalf("case %d: le point %d has id %d, want %d", caseIdx, l, u.leIDs[l], cands[pos].ID)
				}
				if tp < u.cum[cnt] || tp >= u.cum[cnt+1] {
					t.Fatalf("case %d: count-%d point placed at %d outside its run [%d,%d)", caseIdx, cnt, tp, u.cum[cnt], u.cum[cnt+1])
				}
				for j := 0; j < d; j++ {
					if u.trim.Col(j)[tp] != cands[pos].Point[j] {
						t.Fatalf("case %d: trim slot %d does not hold position %d", caseIdx, tp, pos)
					}
				}
			}
		}

		qps := []vec.Point{q, vec.Clone(u.lo)}
		for i := 0; i < 12; i++ {
			qp := make(vec.Point, d)
			for j := range qp {
				qp[j] = u.lo[j] + rng.Float64()*(u.hi[j]-u.lo[j])
			}
			if i%3 == 0 && len(u.maybe) > 0 {
				// Coordinates of a maybe point clamped into the box: buckets
				// and values tie with it.
				p := cands[u.maybe[rng.Intn(len(u.maybe))]].Point
				for j := range qp {
					if rng.Intn(2) == 0 {
						qp[j] = min(max(p[j], u.lo[j]), u.hi[j])
					}
				}
			}
			qps = append(qps, qp)
		}
		// Untrusted points: above q in one coordinate, below lo in another.
		over, under := vec.Clone(q), vec.Clone(u.lo)
		over[rng.Intn(d)] += 0.01
		under[rng.Intn(d)] -= 0.01
		qps = append(qps, over, under)

		for qi, qp := range qps {
			want := dominance.Classify(cands, qp)
			ev := newRankEval(src, sc, cands, qp)
			if wantTrust := qi < len(qps)-2; ev.trusted != wantTrust {
				t.Fatalf("case %d qp %d: trusted = %t", caseIdx, qi, ev.trusted)
			}
			if len(sc.dPos) != len(want.D) || ev.numInc() != len(want.I) || ev.base != 1+len(want.D) {
				t.Fatalf("case %d qp %d: |D| %d |I| %d, want %d %d", caseIdx, qi, len(sc.dPos), ev.numInc(), len(want.D), len(want.I))
			}
			for i, p := range sc.dPos {
				if cands[p].ID != want.D[i].ID {
					t.Fatalf("case %d qp %d: D[%d] differs", caseIdx, qi, i)
				}
			}
			for i := range want.I {
				if got := ev.incAt(i); !vec.Equal(got, want.I[i].Point) {
					t.Fatalf("case %d qp %d: incAt(%d) is not I[%d]", caseIdx, qi, i, i)
				}
			}
			ranks := make([]int, len(wm))
			ev.rankWm(wm, ranks)
			kMax := 0
			for i, w := range wm {
				if r := want.Rank(w, qp); ranks[i] != r {
					t.Fatalf("case %d qp %d: rank under wm[%d] = %d, want %d", caseIdx, qi, i, ranks[i], r)
				}
				kMax = max(kMax, ranks[i])
			}
			if ev.trusted && kMax > u.k0 {
				t.Fatalf("case %d qp %d: k'max %d exceeds k0 %d inside the box", caseIdx, qi, kMax, u.k0)
			}
			ev.forSamples(kMax)
			ws := make([]vec.Weight, 40)
			for i := range ws {
				ws[i] = sample.RandSimplex(rng, d)
				if i%4 == 0 {
					ws[i][rng.Intn(d)] = 0 // zero components: dominating points may tie
					renormalize(ws[i])
				}
			}
			out := make([]int, len(ws))
			ev.sampleRankBlock(ws, out, kMax)
			for i, w := range ws {
				r := want.Rank(w, qp)
				if r <= kMax && out[i] != r {
					t.Fatalf("case %d qp %d: kept sample rank %d, want %d (k'max %d)", caseIdx, qi, out[i], r, kMax)
				}
				if r > kMax && out[i] <= kMax {
					t.Fatalf("case %d qp %d: discarded sample (rank %d) reported %d <= k'max %d", caseIdx, qi, r, out[i], kMax)
				}
			}
		}
		rs := src.Routes.Snapshot()
		if rs.Universes != 1 || rs.EvalsTrimmed+rs.EvalsUntrimmed != int64(len(qps)) {
			t.Fatalf("case %d: route counters %+v for %d query points", caseIdx, rs, len(qps))
		}
		if u.trimmed && (rs.EvalsUntrimmed != 2 || rs.TrimmedPoints != int64(u.trim.Len())) {
			t.Fatalf("case %d: only the two untrusted points may sweep untrimmed: %+v", caseIdx, rs)
		}
		putRankScratch(sc)
	}
}

// oracleTrim is the trim as it was cut before the band image: the
// universe — all, whose points have record ids ids in position order —
// filtered through dominance counts read at each point's id (counts[id] in
// [0, k0) iff id is in the k0-skyband; negative, larger or beyond the
// slice otherwise) and laid out by count, a counting sort in universe
// order. trimOf maps each universe position to its trim position (-1
// outside); ok is false when the trim keeps three quarters of the universe
// or more and is dropped.
func oracleTrim(all *kernel.Coords, ids, counts []int32, k0 int) (trim kernel.Coords, cum, trimOf []int32, ok bool) {
	n, d := all.Len(), all.Dim()
	cum = make([]int32, k0+1)
	trimOf = make([]int32, n)
	for i, id := range ids {
		c := int32(-1)
		if int(id) < len(counts) && counts[id] < int32(k0) {
			c = counts[id]
		}
		trimOf[i] = c
		if c >= 0 {
			cum[c+1]++
		}
	}
	for c := 1; c <= k0; c++ {
		cum[c] += cum[c-1]
	}
	kept := int(cum[k0])
	if kept*4 >= n*3 {
		return trim, nil, nil, false
	}
	trim.Resize(d, kept)
	for i := range trimOf {
		c := trimOf[i]
		if c < 0 {
			continue
		}
		t := cum[c]
		cum[c]++
		trimOf[i] = t
		trim.Put(int(t), all, i)
	}
	copy(cum[1:], cum[:k0])
	cum[0] = 0
	return trim, cum, trimOf, true
}

// skybandSource is a Source whose Band hook serves the images of c's
// bands, waiting for each build, at the Index's band parameters (k'max
// rounded up to a power of two from 16) but without its size refusals.
func skybandSource(c *skyband.Cache) *Source {
	return &Source{
		Kernel: kernel.NewCounters(),
		Routes: new(RouteCounters),
		Band: func(bound int) (BandImage, bool) {
			bandK := 16
			for bandK < bound {
				bandK <<= 1
			}
			b := c.Band(bandK)
			if b.Full() {
				return BandImage{}, false
			}
			ids, counts := b.Members()
			return BandImage{Coords: b.Coords(), IDs: ids, Counts: counts}, true
		},
	}
}

// countsByID returns the band image's counts indexed by record id over
// ids [0, n), -1 for non-members.
func countsByID(img BandImage, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	for i, id := range img.IDs {
		out[id] = img.Counts[i]
	}
	return out
}

// trimCase is one why-not question of the trim tests: q, the sample box's
// lower corner, and the why-not vectors.
type trimCase struct {
	q, qMin vec.Point
	wm      []vec.Weight
}

// trimCases draws why-not questions on ds at small ranks, so the band
// trims their universes, with qMin a random point below q.
func trimCases(ds *dataset.Dataset, want int, seed int64) []trimCase {
	rng := rand.New(rand.NewSource(seed))
	var out []trimCase
	for s := seed; len(out) < want; s++ {
		wl, err := dataset.MakeWhyNot(ds, 5, 12+rng.Intn(40), 1+rng.Intn(3), s)
		if err != nil {
			continue
		}
		qMin := vec.Clone(wl.Q)
		for j := range qMin {
			qMin[j] *= rng.Float64()
		}
		out = append(out, trimCase{wl.Q, qMin, wl.Wm})
	}
	return out
}

// boxPoints returns n random points of the universe's sample box, q and
// lo first.
func boxPoints(u *universe, rng *rand.Rand, n int) []vec.Point {
	out := []vec.Point{vec.Clone(u.hi), vec.Clone(u.lo)}
	for len(out) < n {
		qp := make(vec.Point, len(u.hi))
		for j := range qp {
			qp[j] = u.lo[j] + rng.Float64()*(u.hi[j]-u.lo[j])
		}
		out = append(out, qp)
	}
	return out
}

// runSampleLoops ranks the call's why-not vectors and then, like a sample
// loop, a fixed set of weights capped at k'max, at every box point, and
// returns every rank.
func runSampleLoops(src *Source, sc *rankScratch, qps []vec.Point, wm []vec.Weight, ws []vec.Weight) []int {
	var out []int
	ranks := make([]int, len(wm))
	block := make([]int, len(ws))
	for _, qp := range qps {
		ev := newRankEval(src, sc, nil, qp)
		ev.rankWm(wm, ranks)
		kMax := 0
		for _, r := range ranks {
			kMax = max(kMax, r)
		}
		ev.forSamples(kMax)
		ev.sampleRankBlock(ws, block, kMax)
		out = append(out, ranks...)
		out = append(out, block...)
	}
	return out
}

// TestTrimMatchesByIDOracle holds the trim cut from a band's image to the
// by-id trim it replaced (oracleTrim), on bands fresh on the tree they
// serve, whose image order is the universe's: the same cum, the same trim
// image point for point, each le point at the oracle's position; and the
// sample loops over the two trims report the same ranks, the same kernel
// counters and the same route counters.
func TestTrimMatchesByIDOracle(t *testing.T) {
	trimmed := 0
	for ci, d := range []int{3, 4, 6} {
		ds := dataset.Independent(3000, d, int64(40+ci))
		if ci == 1 {
			ds = dataset.Anticorrelated(3000, d, int64(40+ci))
		}
		tr := ds.Tree()
		cache := skyband.NewCache(tr, nil)
		rng := rand.New(rand.NewSource(int64(ci)))
		for qi, c := range trimCases(ds, 4, int64(10*ci)) {
			src := skybandSource(cache)
			sc := getRankScratch()
			sc.candidates(tr, src, c.q, c.qMin, c.wm)
			u := &sc.uni
			if !u.trimmed {
				putRankScratch(sc)
				continue
			}
			trimmed++
			img, _ := src.Band(u.k0)
			cands, _ := dominance.Candidates(tr, c.q)
			ids := make([]int32, len(cands))
			for i, r := range cands {
				ids[i] = r.ID
			}
			trim, cum, trimOf, ok := oracleTrim(&u.all, ids, countsByID(img, len(ds.Points)), u.k0)
			if !ok || !slices.Equal(u.cum, cum) || !sameImage(&u.trim, &trim) {
				t.Fatalf("d=%d question %d: trim of %d points, cum %v; oracle (kept %t) %d points, cum %v", d, qi, u.trim.Len(), u.cum, ok, trim.Len(), cum)
			}
			for l, m := range u.le {
				if want := trimOf[u.maybe[m]]; u.trimOf[l] != want {
					t.Fatalf("d=%d question %d: le point %d at trim position %d, oracle %d", d, qi, l, u.trimOf[l], want)
				}
			}

			// The same sample loops over the oracle's trim, in a second
			// scratch whose trim is swapped for it.
			qps := boxPoints(u, rng, 10)
			ws := make([]vec.Weight, 32)
			for i := range ws {
				ws[i] = sample.RandSimplex(rng, d)
			}
			got := runSampleLoops(src, sc, qps, c.wm, ws)
			osrc := skybandSource(cache)
			osc := getRankScratch()
			osc.candidates(tr, osrc, c.q, c.qMin, c.wm)
			osc.uni.trim = trim
			osc.uni.cum = cum
			for l, m := range osc.uni.le {
				osc.uni.trimOf[l] = trimOf[osc.uni.maybe[m]]
			}
			want := runSampleLoops(osrc, osc, qps, c.wm, ws)
			if !slices.Equal(got, want) {
				t.Fatalf("d=%d question %d: sample-loop ranks differ over the oracle's trim", d, qi)
			}
			if g, w := src.Kernel.Snapshot(), osrc.Kernel.Snapshot(); g != w {
				t.Fatalf("d=%d question %d: kernel counters %+v, over the oracle's trim %+v", d, qi, g, w)
			}
			if g, w := src.Routes.Snapshot(), osrc.Routes.Snapshot(); g != w {
				t.Fatalf("d=%d question %d: route counters %+v, over the oracle's trim %+v", d, qi, g, w)
			}
			putRankScratch(osc)
			putRankScratch(sc)
		}
	}
	if trimmed < 6 {
		t.Fatalf("only %d questions reached the trim", trimmed)
	}
}

// TestTrimCarriedBand holds the trim cut from a band carried across
// mutations — computed on an older tree, so its image is in that tree's
// order, not the universe's — to the by-id oracle as a set: for every
// count c <= k0 the first cum[c] trim points are the oracle's, and each le
// point sits in its count's run. The mutations insert points the band's
// members dominate many times over and delete non-members, which the band
// survives (skyband.Cache carries it), while splits and condensations
// reorder the tree's leaves.
func TestTrimCarriedBand(t *testing.T) {
	reordered, trimmed := 0, 0
	for ci, d := range []int{3, 4} {
		ds := dataset.Independent(3000, d, int64(50+ci))
		tr := ds.Tree()
		cache := skyband.NewCache(tr, nil)
		cases := trimCases(ds, 4, int64(100*ci))
		// Build every band the questions use, on the bulk-loaded tree.
		for _, c := range cases {
			sc := getRankScratch()
			sc.candidates(tr, skybandSource(cache), c.q, c.qMin, c.wm)
			putRankScratch(sc)
		}
		built := cache.Stats().Bands
		rng := rand.New(rand.NewSource(int64(ci)))
		n := len(ds.Points)
		for step := 0; step < 600; step++ {
			tr = tr.Clone()
			if step%2 == 0 {
				p := make(vec.Point, d)
				for j := range p {
					p[j] = 0.98 + 0.02*rng.Float64()
				}
				tr.Insert(p, int32(n))
				n++
				cache = cache.AfterInsert(tr, p)
				continue
			}
			id := int32(rng.Intn(len(ds.Points)))
			if member(cache, id) || !tr.Delete(ds.Points[id], id) {
				continue
			}
			cache = cache.AfterDelete(tr, id)
		}
		if got := cache.Stats().Bands; got != built {
			t.Fatalf("d=%d: %d of %d bands survived the mutations", d, got, built)
		}
		for qi, c := range cases {
			src := skybandSource(cache)
			sc := getRankScratch()
			sc.candidates(tr, src, c.q, c.qMin, c.wm)
			u := &sc.uni
			if !u.trimmed {
				putRankScratch(sc)
				continue
			}
			trimmed++
			img, _ := src.Band(u.k0)
			cands, _ := dominance.Candidates(tr, c.q)
			ids := make([]int32, len(cands))
			for i, r := range cands {
				ids[i] = r.ID
			}
			counts := countsByID(img, n)
			trim, cum, _, ok := oracleTrim(&u.all, ids, counts, u.k0)
			if !ok || !slices.Equal(u.cum, cum) {
				t.Fatalf("d=%d question %d: cum %v, oracle (kept %t) %v", d, qi, u.cum, ok, cum)
			}
			for ck := 0; ck <= u.k0; ck++ {
				if g, w := prefixRows(&u.trim, int(cum[ck])), prefixRows(&trim, int(cum[ck])); !slices.Equal(g, w) {
					t.Fatalf("d=%d question %d: the first %d trim points differ from the oracle's as a set", d, qi, cum[ck])
				}
			}
			if !sameImage(&u.trim, &trim) {
				reordered++
			}
			for l, m := range u.le {
				cnt, tp := counts[u.leIDs[l]], u.trimOf[l]
				if tp < u.cum[cnt] || tp >= u.cum[cnt+1] {
					t.Fatalf("d=%d question %d: count-%d le point at %d, outside its run [%d,%d)", d, qi, cnt, tp, u.cum[cnt], u.cum[cnt+1])
				}
				for j := 0; j < d; j++ {
					if u.trim.Col(j)[tp] != u.all.Col(j)[u.maybe[m]] {
						t.Fatalf("d=%d question %d: trim position %d does not hold le point %d", d, qi, tp, l)
					}
				}
			}
			putRankScratch(sc)
		}
	}
	if trimmed < 4 || reordered == 0 {
		t.Fatalf("%d questions reached the trim, %d of them with a band out of universe order; want both exercised", trimmed, reordered)
	}
}

// member reports whether id belongs to any band c holds.
func member(c *skyband.Cache, id int32) bool {
	for _, k := range []int{16, 32, 64, 128} {
		if b := c.Peek(k); b != nil {
			if ids, _ := b.Members(); slices.Contains(ids, id) {
				return true
			}
		}
	}
	return false
}

// sameImage reports whether a and b hold the same points in the same
// order.
func sameImage(a, b *kernel.Coords) bool {
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		return false
	}
	for j := 0; j < a.Dim(); j++ {
		if !slices.Equal(a.Col(j)[:a.Len()], b.Col(j)[:b.Len()]) {
			return false
		}
	}
	return true
}

// prefixRows returns the first n points of c as sorted strings, a multiset
// to compare.
func prefixRows(c *kernel.Coords, n int) []string {
	out := make([]string, n)
	for i := range out {
		p := make([]float64, c.Dim())
		for j := range p {
			p[j] = c.Col(j)[i]
		}
		out[i] = fmt.Sprint(p)
	}
	slices.Sort(out)
	return out
}
