package core

import (
	"math/bits"
	"slices"

	"wqrtq/internal/kernel"
	"wqrtq/internal/vec"
)

// trimMinUniverse is the universe size below which no band is looked up:
// sweeping a few dozen points costs less than filtering them.
const trimMinUniverse = 64

// nBuckets is the resolution of the box's per-coordinate grid: bucket t of
// coordinate j covers 1/nBuckets of [lo_j, hi_j]; values above the box
// share one more bucket, nBuckets.
const nBuckets = 64

// universe is the call-fixed state of one refinement call with a Source
// (§4.4 reuse), at any dimensionality: everything that depends on the
// call's reference point q and its sample box [q_min, q] but not on the
// individual sample query point. It is built once by prepareUniverse and
// read-only afterwards.
//
// Counting against the candidate superset is exact after subtracting the
// D-beats: points the sample point dominates can never score strictly below
// it (score sums of coordinate-wise >= points are >= under non-negative
// weights, with IEEE rounding monotone), equal points tie, so
// count(cands) = count(D) + count(I).
type universe struct {
	// all is the column-major image of the candidate superset — every point
	// not dominated by and not equal to q — in traversal order, collected
	// by the node walk (collect).
	all kernel.Coords
	// lo and hi bound the sample box: hi is q, lo the coordinate-wise
	// minimum of q_min and q. A query point inside the box is trusted: the
	// bounds below were derived for it.
	lo, hi vec.Point
	loBuf  vec.Point
	// maybe lists, in position order, the only candidates that can fail to
	// be incomparable with a trusted query point q': those <= q everywhere
	// (D(q), which contains every D(q')) and those >= lo everywhere (a
	// point dominated by or equal to q' is >= q' >= lo). Every other
	// candidate has a coordinate above q >= q' and one below lo <= q', so
	// it is incomparable with every trusted q' and never needs looking at.
	// le lists, as indices into maybe, the ones <= q everywhere — D(q),
	// fewer than k0 points — and leIDs their record ids. The walk fills
	// all three as it collects the points.
	maybe []int32
	le    []int32
	leIDs []int32
	cls   []uint8 // one leaf's classes, the walk's scratch
	// ge, built only for a real box (q_min given), is the range-encoded
	// bitmap index of maybe: for coordinate j and t in [0, nBuckets+1], the
	// bitmap geMap(j, t) over maybe indices holds the points whose
	// coordinate j falls in bucket t or above (t = nBuckets+1: none).
	// scale is each coordinate's bucket width, inverted.
	ge    []uint64
	scale []float64
	// k0 is k'max at q. Every trusted q' is <= q coordinate-wise, so it
	// scores no higher than q under any weighting vector: its strict
	// beaters are among q's, rank(q', w) <= rank(q, w), and k'max(q') <= k0
	// — one bound for the whole call. qRanks are the ranks of q it is the
	// maximum of, under the why-not vectors wmFor (the identity of the
	// caller's slice): the call's evaluations at q read them instead of
	// ranking q again.
	k0     int
	qRanks []int
	wmFor  []vec.Weight
	// below[i] holds, sorted, the scores under wmFor[i] of the universe
	// points scoring strictly below q — at most k0 - 1 of them. A trusted
	// q' scores no higher than q, so its beaters are all in there: its
	// Wm rankings are binary searches.
	below [][]float64
	// trim, when trimmed is set, is the image of (k0-skyband ∩ all)
	// ordered by dominance count, trimOf maps each le point (by its index
	// into le) to its position in trim — every point of D(q) is in the
	// k0-skyband — and cum[c] counts the trim points with dominance count
	// < c: the first cum[c] points of trim are exactly the c-skyband's
	// share of the universe, for every c <= k0. One band lookup and one
	// filter per call thus serve every sample query point its own tightest
	// trim as a prefix. slot and dTrim are buildTrim's scratch.
	trimmed bool
	trim    kernel.Coords
	trimOf  []int32
	cum     []int32
	slot    []int32
	dTrim   []idPos
}

// idPos is a record id with a position.
type idPos struct{ id, pos int32 }

// release drops the universe's references into snapshot data and caller
// slices, keeping the pointer-free backing arrays.
func (u *universe) release() {
	u.lo, u.hi = nil, nil
	u.k0 = 0
	u.trimmed = false
	u.wmFor = nil
}

// trusted reports whether qp lies in the call's sample box, the
// precondition of maybe, k0, the bitmap index and the trim.
func (u *universe) trusted(qp vec.Point) bool {
	for j, v := range qp {
		if !(v >= u.lo[j] && v <= u.hi[j]) {
			return false
		}
	}
	return true
}

// setBox sets the call's reference point q and sample box [qMin, q] (qMin
// nil: q alone), which the walk classifies against.
func (u *universe) setBox(q, qMin vec.Point) {
	u.hi = q
	u.lo = q
	if qMin != nil {
		u.loBuf = u.loBuf[:0]
		for j := range q {
			u.loBuf = append(u.loBuf, min(qMin[j], q[j]))
		}
		u.lo = u.loBuf
	}
}

// prepareUniverse builds the rest of the scratch's call-fixed universe for
// reference point q and sample box [qMin, q] (qMin nil: q alone) over the
// candidate image and maybe list already collected into sc.uni (see
// candidates): the bitmap index of maybe (a real box only), the below-q
// score lists and k0 from one scoring pass of wm at q, and the band trim.
// An empty candidate set gets a zero-point universe: every rank over it is
// 1 and the sampler finds no sample space.
func (sc *rankScratch) prepareUniverse(src *Source, q, qMin vec.Point, wm []vec.Weight) {
	u := &sc.uni
	n := u.all.Len()
	u.ge = u.ge[:0]
	if qMin != nil {
		u.buildBuckets()
	}
	sc.prepared = true

	// k0: the first evaluation of the call, over the whole image.
	sc.classify(q)
	u.rankQ(sc, src.Kernel, q, wm)

	u.trimmed = false
	if n >= trimMinUniverse && src.Band != nil {
		if img, ok := src.Band(u.k0); ok {
			u.buildTrim(img)
		}
	}
	trimmed := 0
	if u.trimmed {
		trimmed = u.trim.Len()
	}
	src.Routes.countUniverse(n, trimmed)
}

// bucket maps coordinate value v to its bucket on coordinate j: subtract,
// scale, clamp, truncate. Each step is monotone under IEEE rounding — for
// any scale >= 0, +Inf (a zero-width coordinate) included, whose NaN at
// v = lo clamps to 0 with everything below it — so v <= v' implies
// bucket(v) <= bucket(v'): a larger bucket proves a strictly larger value,
// and only equal buckets need comparing values.
func (u *universe) bucket(j int, v float64) int {
	x := (v - u.lo[j]) * u.scale[j]
	switch {
	case !(x > 0):
		return 0
	case x >= nBuckets:
		return nBuckets
	}
	return int(x)
}

// geMap returns the bitmap of the maybe points whose coordinate j lies in
// bucket t or above.
func (u *universe) geMap(j, t int) []uint64 {
	nw := words(len(u.maybe))
	at := (j*(nBuckets+2) + t) * nw
	return u.ge[at : at+nw : at+nw]
}

// buildBuckets builds the bitmap index ge: one bit per maybe point in its
// bucket's bitmap, then a suffix OR turns "in bucket t" into "in bucket t
// or above".
func (u *universe) buildBuckets() {
	d, nw := u.all.Dim(), words(len(u.maybe))
	u.scale = u.scale[:0]
	for j := range d {
		u.scale = append(u.scale, nBuckets/(u.hi[j]-u.lo[j]))
	}
	stride := (nBuckets + 2) * nw
	if cap(u.ge) < d*stride {
		u.ge = make([]uint64, d*stride)
	}
	u.ge = u.ge[:d*stride]
	clear(u.ge)
	//wqrtq:bounded one pass per coordinate over the maybe list
	for j := range d {
		col, g := u.all.Col(j), u.ge[j*stride:(j+1)*stride]
		for m, p := range u.maybe {
			g[u.bucket(j, col[p])*nw+m>>6] |= 1 << (m & 63)
		}
		for t := nBuckets - 1; t >= 0; t-- {
			cur, above := g[t*nw:(t+1)*nw], g[(t+1)*nw:(t+2)*nw]
			for w := range cur {
				cur[w] |= above[w]
			}
		}
	}
}

// words returns the number of 64-bit words n bits take.
func words(n int) int { return (n + 63) >> 6 }

// rankQ scores wm over the whole image in one blocked pass per BlockSize
// vectors, keeping per vector the scores strictly below q's (sorted), and
// derives from them q's ranks and k0. It must follow classify(q).
func (u *universe) rankQ(sc *rankScratch, ct *kernel.Counters, q vec.Point, wm []vec.Weight) {
	d, n := u.all.Dim(), u.all.Len()
	if cap(u.below) < len(wm) {
		u.below = make([][]float64, len(wm))
	}
	u.below = u.below[:len(wm)]
	for i := range u.below {
		u.below[i] = u.below[i][:0]
	}
	//wqrtq:bounded one pass over the call's candidate list per BlockSize why-not vectors
	for base := 0; base < len(wm); base += kernel.BlockSize {
		nb := min(kernel.BlockSize, len(wm)-base)
		wb, fqs, _ := sc.ks.Block(nb, d)
		for b := range nb {
			copy(wb[b*d:(b+1)*d], wm[base+b])
			fqs[b] = vec.Score(wm[base+b], q)
		}
		if cap(sc.scores) < nb*boxChunk {
			sc.scores = make([]float64, nb*boxChunk)
		}
		for lo := 0; lo < n; lo += boxChunk {
			sc.view.SliceOf(&u.all, lo, min(lo+boxChunk, n))
			m := sc.view.Len()
			out := sc.scores[:nb*m]
			kernel.ScoreBlock(&sc.view, wb, nb, out)
			for b, fq := range fqs {
				l := u.below[base+b]
				for _, s := range out[b*m : (b+1)*m] {
					if s < fq {
						l = append(l, s)
					}
				}
				u.below[base+b] = l
			}
		}
		ct.Add(nb, n)
	}
	if cap(u.qRanks) < len(wm) {
		u.qRanks = make([]int, len(wm))
	}
	u.qRanks = u.qRanks[:len(wm)]
	u.k0 = 0
	for i, w := range wm {
		slices.Sort(u.below[i])
		u.qRanks[i] = 1 + len(sc.dPos) + len(u.below[i]) - countBeatsAt(&u.all, sc.dPos, w, vec.Score(w, q))
		u.k0 = max(u.k0, u.qRanks[i])
	}
	u.wmFor = wm
}

// buildTrim cuts the trim from the band image: the members counted below
// k0 that lie in the universe (below q on some coordinate), laid out by
// count (a counting sort, stable in the image's order), so that every
// c-skyband for c <= k0 is a prefix of the trim. It scans the band's few
// thousand members in order rather than looking up each universe point's
// count. The trim is dropped when it keeps three quarters of the universe
// or more: it would not pay for its D-filtering.
func (u *universe) buildTrim(img BandImage) {
	n, d, k0, q := u.all.Len(), u.all.Dim(), u.k0, u.hi
	m := img.Coords.Len()
	if cap(u.cum) < k0+1 {
		u.cum = make([]int32, k0+1)
	}
	cum := u.cum[:k0+1]
	clear(cum)
	if cap(u.slot) < m {
		u.slot = make([]int32, m)
	}
	slot := u.slot[:m]
	// Pass 1: each kept member's count, parked in slot (-1: not kept), and
	// the histogram (cum[c+1] = members with count c).
	//wqrtq:bounded one pass over the band's members
	for i, c := range img.Counts[:m] {
		slot[i] = -1
		if c >= int32(k0) {
			continue
		}
		for j, v := range q {
			if img.Coords.Col(j)[i] < v {
				slot[i] = c
				cum[c+1]++
				break
			}
		}
	}
	for c := 1; c <= k0; c++ {
		cum[c] += cum[c-1]
	}
	kept := int(cum[k0])
	if kept*4 >= n*3 {
		return
	}
	// Pass 2: place every kept member at the next free slot of its count's
	// run. cum[c] is advanced as run c fills and so ends up holding the
	// run's end — which is cum[c+1]'s start value — so one shift restores
	// the prefix sums. The members <= q everywhere, D(q), note where they
	// went; each has fewer than |D(q)| = len(le) dominators, all in D(q).
	u.trim.Resize(d, kept)
	dTrim, nd := u.dTrim[:0], int32(len(u.le))
	//wqrtq:bounded second pass of the same members
	for i, c := range slot {
		if c < 0 {
			continue
		}
		t := cum[c]
		cum[c]++
		u.trim.Put(int(t), img.Coords, i)
		if c < nd && leRow(img.Coords, i, q) {
			dTrim = append(dTrim, idPos{img.IDs[i], t})
		}
	}
	copy(cum[1:], cum[:k0])
	cum[0] = 0
	u.dTrim = dTrim
	// Each le point's trim position, matched by id: both sides are D(q).
	if cap(u.trimOf) < len(u.le) {
		u.trimOf = make([]int32, len(u.le))
	}
	trimOf := u.trimOf[:len(u.le)]
	//wqrtq:bounded D(q) has fewer than k0 members
	for l, id := range u.leIDs {
		at := slices.IndexFunc(dTrim, func(e idPos) bool { return e.id == id })
		if at < 0 {
			return // a band missing a point of D(q): no trim rather than a wrong one
		}
		trimOf[l] = dTrim[at].pos
	}
	u.trimOf, u.cum = trimOf, cum
	u.trimmed = true
}

// leRow reports whether point i of c is <= q everywhere.
func leRow(c *kernel.Coords, i int, q vec.Point) bool {
	for j, v := range q {
		if !(c.Col(j)[i] <= v) {
			return false
		}
	}
	return true
}

// classify splits the universe against qp and reports whether qp is
// trusted. The outcome is sc.dPos, the positions of the points dominating
// qp in position order, and the bitmap sc.notX of the points that are not
// incomparable with qp (dominating, or dominated by or equal to it), over
// the domain sc.notDom: the maybe list for a trusted point, every position
// (notAll) for an untrusted one — outside the sample box, which only
// rounding in the box sampler could produce. Either way the split is
// exactly dominance.Classify's over the universe: p dominates qp iff p <= qp
// everywhere and p != qp, is dominated or equal iff p >= qp everywhere,
// and is incomparable otherwise.
func (sc *rankScratch) classify(qp vec.Point) bool {
	u := &sc.uni
	trusted := u.trusted(qp)
	if trusted {
		sc.classifyBox(qp)
	} else {
		sc.classifyScan(qp)
	}
	pre, inc := sc.notPre[:0], sc.incPre[:0]
	c := int32(0)
	for w, x := range sc.notX {
		pre = append(pre, c)
		inc = append(inc, int32(sc.posOf(w<<6))-c)
		c += int32(bits.OnesCount64(x))
	}
	sc.notPre, sc.incPre = append(pre, c), inc
	return trusted
}

// posOf returns the universe position of domain index m.
func (sc *rankScratch) posOf(m int) int {
	if sc.notAll {
		return m
	}
	return int(sc.notDom[m])
}

// notWords returns the scratch's notX sized to nw words, contents
// unspecified.
func (sc *rankScratch) notWords(nw int) []uint64 {
	if cap(sc.notX) < nw {
		sc.notX = make([]uint64, nw)
	}
	sc.notX = sc.notX[:nw]
	return sc.notX
}

// classifyBox classifies a trusted point through the maybe list alone. The
// points >= qp are the AND of the d bitmaps at qp's buckets, less those of
// them that share qp's bucket on some coordinate and fail the exact test;
// the points <= qp are among le, each tested exactly.
func (sc *rankScratch) classifyBox(qp vec.Point) {
	u := &sc.uni
	x := sc.notWords(words(len(u.maybe)))
	sc.notDom, sc.notAll = u.maybe, false
	if len(u.ge) == 0 {
		// No box: qp is q, and no candidate is >= q.
		clear(x)
	} else {
		geMaps, gtMaps := sc.geMaps[:0], sc.gtMaps[:0]
		for j, v := range qp {
			t := u.bucket(j, v)
			geMaps = append(geMaps, u.geMap(j, t))
			gtMaps = append(gtMaps, u.geMap(j, t+1))
		}
		sc.geMaps, sc.gtMaps = geMaps, gtMaps
		//wqrtq:bounded one word per 64 maybe points
		for w := range x {
			a, eq := ^uint64(0), uint64(0)
			for j, g := range geMaps {
				a &= g[w]
				eq |= g[w] &^ gtMaps[j][w]
			}
			for amb := a & eq; amb != 0; amb &= amb - 1 {
				b := bits.TrailingZeros64(amb)
				if !u.geAt(int(u.maybe[w<<6|b]), qp) {
					a &^= 1 << b
				}
			}
			x[w] = a
		}
	}
	dPos, dLe := sc.dPos[:0], sc.dLe[:0]
	//wqrtq:bounded D(q) has fewer than k0 members
	for l, m := range u.le {
		p := int(u.maybe[m])
		if !leRow(&u.all, p, qp) {
			continue
		}
		x[m>>6] |= 1 << (m & 63)
		if !u.geAt(p, qp) {
			dPos = append(dPos, int32(p))
			dLe = append(dLe, int32(l))
		}
	}
	sc.dPos, sc.dLe = dPos, dLe
}

// classifyScan classifies an untrusted point by comparing it with every
// candidate.
func (sc *rankScratch) classifyScan(qp vec.Point) {
	u := &sc.uni
	n := u.all.Len()
	x := sc.notWords(words(n))
	clear(x)
	sc.notDom, sc.notAll = nil, true
	dPos := sc.dPos[:0]
	var box [boxChunk]uint8
	//wqrtq:bounded one pass over the call's candidate list, what Classify costs
	for base := 0; base < n; base += boxChunk {
		b := box[:min(boxChunk, n-base)]
		boxBits(&u.all, base, qp, qp, b)
		for i, c := range b {
			p := base + i
			if c == 1 {
				dPos = append(dPos, int32(p))
			}
			x[p>>6] |= uint64(c&1|c>>1) << (p & 63)
		}
	}
	sc.dPos = dPos
}

// geAt reports whether universe point p is >= qp everywhere (leRow: <=).
func (u *universe) geAt(p int, qp vec.Point) bool {
	for j, v := range qp {
		if !(u.all.Col(j)[p] >= v) {
			return false
		}
	}
	return true
}

// boxChunk is how many points one boxBits call compares: few enough that
// their bytes stay in L1 across the d column sweeps, each of which reads
// its own stretch of memory once.
const boxChunk = 1024

// boxBits compares the len(bits) points of img from position base on with
// the box [lo, hi] and writes one byte per point: bit 0 set iff the point is
// <= hi everywhere, bit 1 iff it is >= lo everywhere. It sweeps one column
// at a time, whatever their number, and materializes the comparisons as 0/1
// integers — a flag-set each, not a jump.
func boxBits(img *kernel.Coords, base int, lo, hi vec.Point, bits []uint8) {
	for i := range bits {
		bits[i] = 3
	}
	for j, h := range hi {
		l := lo[j]
		col := img.Col(j)[base : base+len(bits)]
		bits := bits[:len(col)]
		for i, v := range col {
			bits[i] &= b01(v <= h) | b01(v >= l)<<1
		}
	}
}

// b01 returns b as 0 or 1.
func b01(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// numInc returns |I(qp)| of the current classification.
func (sc *rankScratch) numInc() int {
	return sc.uni.all.Len() - int(sc.notPre[len(sc.notPre)-1])
}

// notBefore counts the set notX bits below domain index m.
func (sc *rankScratch) notBefore(m int) int {
	c := int(sc.notPre[m>>6])
	if r := m & 63; r != 0 {
		c += bits.OnesCount64(sc.notX[m>>6] & (1<<r - 1))
	}
	return c
}

// incAt returns the i-th incomparable point in classification order: the
// i-th position of the universe whose notX bit is clear. With pos(m) the
// position of domain index m, g(m) = pos(m) - notBefore(m) counts the
// incomparable positions before pos(m) and never decreases with m, so the
// answer is i + notBefore(M) for the first M with g(M) > i. incPre holds g
// at every word's first index, so one binary search over the words and one
// within a word — a popcount per step — find M. The coordinates are read
// off the image into a scratch point valid until the next call — the
// sampler consumes it at once — which spares every draw a pointer chase
// into the dataset.
func (sc *rankScratch) incAt(i int) vec.Point {
	// w: the first word with incPre[w] > i, by a branch-free halving.
	inc, w := sc.incPre, 0
	for n := len(inc); n > 1; n -= n >> 1 {
		if h := w + n>>1; int(inc[h-1]) <= i {
			w = h
		}
	}
	if w < len(inc) && int(inc[w]) <= i {
		w++
	}
	// g exceeds i at word w's first index (or the domain's end), not at
	// word w-1's: M is in word w-1, after its first index, or is that end.
	n := len(sc.notDom)
	if sc.notAll {
		n = sc.uni.all.Len()
	}
	lo, m := 0, min(w<<6, n)
	if w > 0 {
		lo = (w-1)<<6 + 1
		base, x := int(sc.notPre[w-1]), sc.notX[w-1]
		for lo < m {
			h := int(uint(lo+m) >> 1)
			if sc.posOf(h)-base-bits.OnesCount64(x&(1<<(h&63)-1)) > i {
				m = h
			} else {
				lo = h + 1
			}
		}
	}
	at := i + sc.notBefore(m)
	p, all := sc.pbuf[:0], &sc.uni.all
	for j := 0; j < all.Dim(); j++ {
		p = append(p, all.Col(j)[at])
	}
	sc.pbuf = p
	return p
}

// inTrim appends to out the trim positions of the le points dLe (indices
// into le) that fall within the first limit points of the trim.
func (u *universe) inTrim(dLe []int32, limit int, out []int32) []int32 {
	for _, l := range dLe {
		if t := u.trimOf[l]; int(t) < limit {
			out = append(out, t)
		}
	}
	return out
}
