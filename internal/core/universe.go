package core

import (
	"sort"

	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/vec"
)

// wmColsMinQPs is the sample-query-point count from which the sorted
// per-vector score columns pay for themselves: one sort costs on the
// order of a hundred linear sweeps of the same column, so binary-searched
// Wm rankings only win when enough query points amortize it (the paper's
// default |Q| = 800 clears the bar comfortably; small benchmark sweeps do
// not).
const wmColsMinQPs = 64

// trimMinUniverse is the universe size below which no band is looked up:
// sweeping a few dozen points costs less than filtering them.
const trimMinUniverse = 64

// universe is the call-fixed state of one refinement call with a Source
// (§4.4 reuse), at any dimensionality: everything that depends on the
// call's reference point q and its sample box [q_min, q] but not on the
// individual sample query point. It is built once by prepare and read-only
// afterwards, so parallel MQWK workers share the coordinator's.
//
// Counting against the candidate superset is exact after subtracting the
// D-beats: points the sample point dominates can never score strictly below
// it (score sums of coordinate-wise >= points are >= under non-negative
// weights, with IEEE rounding monotone), equal points tie, so
// count(cands) = count(D) + count(I).
type universe struct {
	// refs is the candidate superset — every point not dominated by and
	// not equal to q — in traversal order, and all its column-major image.
	refs []dominance.Ref
	all  kernel.Coords
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
	// maybeImg holds their coordinates, so classifying streams it instead
	// of gathering from all.
	maybe    []int32
	maybeImg kernel.Coords
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
	// trim, when trimmed is set, is the image of (k0-skyband ∩ refs)
	// ordered by dominance count, trimOf maps a position in refs to its
	// position in trim (-1 outside), and cum[c] counts the trim points with
	// dominance count < c: the first cum[c] points of trim are exactly the
	// c-skyband's share of the universe, for every c <= k0. One band
	// lookup and one filter per call thus serve every sample query point
	// its own tightest trim as a prefix.
	trimmed bool
	trim    kernel.Coords
	trimOf  []int32
	cum     []int32
	// Sorted score columns of the call's why-not vectors over the image
	// every trusted Wm ranking is counted on (trim when trimmed: a rank
	// <= k0 has all its beaters inside the k0-skyband; all otherwise),
	// built when enough sample query points amortize the sorts: each Wm
	// ranking then costs one binary search per vector instead of one
	// sweep. Empty when not built.
	wmCols   []float64
	wmSorted [][]float64
}

// release drops the universe's references into snapshot data and caller
// slices, keeping the pointer-free backing arrays.
func (u *universe) release() {
	u.refs = nil
	u.lo, u.hi = nil, nil
	u.k0 = 0
	u.trimmed = false
	u.wmFor = nil
	u.wmSorted = u.wmSorted[:0]
}

// trusted reports whether qp lies in the call's sample box, the
// precondition of maybe, k0 and the trim.
func (u *universe) trusted(qp vec.Point) bool {
	for j, v := range qp {
		if !(v >= u.lo[j] && v <= u.hi[j]) {
			return false
		}
	}
	return true
}

// prepareUniverse builds the scratch's call-fixed universe over cands for
// reference point q and sample box [qMin, q] (qMin nil: q alone): the SoA
// image, the maybe list, k0 from one uncapped ranking of wm at q, the band
// trim, and — when qSamples query points will amortize the sorts — the
// sorted score columns. An empty candidate list gets a zero-point universe:
// every rank over it is 1 and the sampler finds no sample space. Only a nil
// src leaves sc.uni nil, which selects the legacy route.
func (sc *rankScratch) prepareUniverse(src *Source, cands []dominance.Ref, q, qMin vec.Point, wm []vec.Weight, qSamples int) {
	if src == nil {
		return
	}
	d, n := len(q), len(cands)
	u := &sc.own
	u.refs = cands
	u.all.Fill(d, n, func(i int) []float64 { return cands[i].Point })
	u.hi = q
	u.lo = q
	if qMin != nil {
		u.loBuf = u.loBuf[:0]
		for j := range q {
			u.loBuf = append(u.loBuf, min(qMin[j], q[j]))
		}
		u.lo = u.loBuf
	}
	u.maybe = u.maybe[:0]
	u.maybeImg.Reset(d)
	var bits [boxChunk]uint8
	//wqrtq:bounded one pass over the call's candidate list, like the Fill above
	for base := 0; base < n; base += boxChunk {
		b := bits[:min(boxChunk, n-base)]
		boxBits(&u.all, base, u.lo, u.hi, b)
		for i, c := range b {
			if c != 0 {
				u.maybe = append(u.maybe, int32(base+i))
				u.maybeImg.Append(cands[base+i].Point)
			}
		}
	}
	sc.uni = u

	// k0: the first evaluation of the call, uncapped over the whole image.
	sc.classify(q)
	if cap(u.qRanks) < len(wm) {
		u.qRanks = make([]int, len(wm))
	}
	u.qRanks = u.qRanks[:len(wm)]
	e := rankEval{qp: q, base: 1 + len(sc.dPos), sc: sc, ct: src.Kernel}
	e.rankBlock(&u.all, sc.dPos, wm, u.qRanks)
	for _, r := range u.qRanks {
		u.k0 = max(u.k0, r)
	}
	u.wmFor = wm

	u.trimmed = false
	if n >= trimMinUniverse && src.BandCounts != nil {
		if counts := src.BandCounts(u.k0); counts != nil {
			u.buildTrim(counts)
		}
	}
	trimmed := 0
	if u.trimmed {
		trimmed = u.trim.Len()
	}
	src.Routes.countUniverse(n, trimmed)

	u.wmSorted = u.wmSorted[:0]
	if qSamples < wmColsMinQPs {
		return
	}
	// Score columns of the why-not vectors, one blocked sweep + one sort
	// per vector; every trusted query point's Wm rankings then binary-
	// search these columns (over the image rankWm counts a trusted point's
	// D-beats on).
	img := &u.all
	if u.trimmed {
		img = &u.trim
	}
	m := img.Len()
	if cap(u.wmCols) < len(wm)*m {
		u.wmCols = make([]float64, len(wm)*m)
	}
	scores := u.wmCols[:len(wm)*m]
	wb, _, _ := sc.ks.Block(len(wm), d)
	for i, w := range wm {
		copy(wb[i*d:(i+1)*d], w)
	}
	kernel.ScoreBlock(img, wb, len(wm), scores)
	src.Kernel.Add(len(wm), m)
	for i := range wm {
		col := scores[i*m : (i+1)*m]
		sort.Float64s(col)
		u.wmSorted = append(u.wmSorted, col)
	}
}

// buildTrim filters refs through the band's dominance counts, keeping the
// k0-skyband, and lays the survivors out by count (a counting sort), so
// that every c-skyband for c <= k0 is a prefix of the image. The trim is
// dropped when it keeps three quarters of the universe or more: it would
// not pay for its D-filtering.
func (u *universe) buildTrim(counts []int32) {
	n, d, k0 := len(u.refs), u.all.Dim(), u.k0
	if cap(u.cum) < k0+1 {
		u.cum = make([]int32, k0+1)
	}
	cum := u.cum[:k0+1]
	clear(cum)
	if cap(u.trimOf) < n {
		u.trimOf = make([]int32, n)
	}
	trimOf := u.trimOf[:n]
	// Pass 1: each kept point's count, parked in trimOf, and the histogram
	// (cum[c+1] = points with count c).
	//wqrtq:bounded one pass over the call's candidate list
	for i, r := range u.refs {
		c := int32(-1)
		if int(r.ID) < len(counts) && counts[r.ID] < int32(k0) {
			c = counts[r.ID]
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
		return
	}
	// Pass 2: place every kept point at the next free slot of its count's
	// run. cum[c] is advanced as run c fills and so ends up holding the
	// run's end — which is cum[c+1]'s start value — so one shift restores
	// the prefix sums.
	u.trim.Resize(d, kept)
	//wqrtq:bounded second pass of the same list
	for i := range trimOf {
		c := trimOf[i]
		if c < 0 {
			continue
		}
		t := cum[c]
		cum[c]++
		trimOf[i] = t
		u.trim.Put(int(t), &u.all, i)
	}
	copy(cum[1:], cum[:k0])
	cum[0] = 0
	u.trimOf, u.cum = trimOf, cum
	u.trimmed = true
}

// classify splits the universe against qp into sc.dPos and sc.notI and
// reports whether qp is trusted. A trusted point only examines uni.maybe;
// an untrusted one (outside the sample box: only rounding in the box
// sampler could produce it) examines every candidate. Either way the split
// is exactly dominance.Classify's over uni.refs, with le = (p <= qp
// everywhere) and ge = (p >= qp everywhere): p dominates qp iff le && !ge,
// is dominated or equal iff ge, and is incomparable otherwise.
func (sc *rankScratch) classify(qp vec.Point) bool {
	u := sc.uni
	trusted := u.trusted(qp)
	img, n := &u.all, len(u.refs)
	if trusted {
		img, n = &u.maybeImg, len(u.maybe)
	}
	// Every examined point may land in notI, and both lists are written
	// unconditionally and kept only when the point belongs, so the loop
	// carries no data-dependent branch.
	if cap(sc.notI) < n {
		sc.notI = make([]int32, n)
	}
	if cap(sc.dPos) < n {
		sc.dPos = make([]int32, n)
	}
	notI, dPos := sc.notI[:n], sc.dPos[:n]
	nd, nn := 0, 0
	var bits [boxChunk]uint8
	//wqrtq:bounded one pass over at most the call's candidate list, what Classify costs
	for base := 0; base < n; base += boxChunk {
		b := bits[:min(boxChunk, n-base)]
		boxBits(img, base, qp, qp, b)
		for i, c := range b {
			le, ge := int(c&1), int(c>>1)
			p := int32(base + i)
			if trusted {
				p = u.maybe[base+i]
			}
			dPos[nd], notI[nn] = p, p
			nd += le &^ ge
			nn += le | ge
		}
	}
	sc.dPos, sc.notI = dPos[:nd], notI[:nn]
	return trusted
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
func (sc *rankScratch) numInc() int { return len(sc.uni.refs) - len(sc.notI) }

// incAt returns the i-th incomparable point in classification order: the
// i-th position of the universe not listed in notI. With s_j the sorted
// notI entries, s_j - j counts the incomparable points before s_j, so the
// answer follows the first j entries for the smallest j with s_j - j > i.
// The coordinates are read off the image into a scratch point valid until
// the next call — the sampler consumes it at once — which spares every
// draw a pointer chase into the dataset.
func (sc *rankScratch) incAt(i int) vec.Point {
	notI := sc.notI
	lo, hi := 0, len(notI)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); int(notI[m])-m > i {
			hi = m
		} else {
			lo = m + 1
		}
	}
	p, all := sc.pbuf[:0], &sc.uni.all
	for j := 0; j < all.Dim(); j++ {
		p = append(p, all.Col(j)[i+lo])
	}
	sc.pbuf = p
	return p
}

// inTrim appends to out the trim positions of those universe positions in
// pos that fall within the first limit points of the trim.
func (u *universe) inTrim(pos []int32, limit int, out []int32) []int32 {
	for _, p := range pos {
		if t := u.trimOf[p]; t >= 0 && int(t) < limit {
			out = append(out, t)
		}
	}
	return out
}
