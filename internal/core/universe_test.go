package core

import (
	"math/rand"
	"slices"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// bandSource is a Source whose BandCounts hook serves exact dominance
// counts computed by the naive quadratic scan, so the universe's trim runs
// without internal/skyband.
func bandSource(pts []vec.Point) *Source {
	return &Source{
		Kernel: kernel.NewCounters(),
		Routes: new(RouteCounters),
		BandCounts: func(bound int) []int32 {
			counts := make([]int32, len(pts))
			for i := range counts {
				counts[i] = -1
			}
			for _, m := range dominance.KSkybandNaive(pts, bound) {
				counts[m.Index] = int32(m.Count)
			}
			return counts
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
		src := bandSource(ds.Points)
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
			counts := src.BandCounts(u.k0)
			for c := 0; c <= u.k0; c++ {
				want := 0
				for _, r := range cands {
					if counts[r.ID] >= 0 && int(counts[r.ID]) < c {
						want++
					}
				}
				if int(u.cum[c]) != want {
					t.Fatalf("case %d: cum[%d] = %d, want %d", caseIdx, c, u.cum[c], want)
				}
			}
			for pos, tp := range u.trimOf {
				cnt := counts[cands[pos].ID]
				if in := cnt >= 0 && int(cnt) < u.k0; in != (tp >= 0) {
					t.Fatalf("case %d: position %d (count %d) trim membership %t", caseIdx, pos, cnt, tp >= 0)
				}
				if tp >= 0 {
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
