package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// renormalize scales w in place so its components sum to 1.
func renormalize(w vec.Weight) {
	s := 0.0
	for _, v := range w {
		s += v
	}
	for i := range w {
		w[i] /= s
	}
}

// bandBackedSource is bandSource plus the KthPoint hook served from the
// k-skyband's own tree, the way Index.coreSource wires a Source. The trim
// counts are exact at every bound, so — unlike the Index, which refuses a
// trim band on datasets this small — the band trim runs at fuzz scale.
func bandBackedSource(tr *rtree.Tree, pts []vec.Point, k int) *Source {
	src := bandSource(tr, naiveCounts(pts))
	var bandPts []vec.Point
	var ids []int32
	for _, m := range dominance.KSkybandNaive(pts, k) {
		bandPts = append(bandPts, pts[m.Index])
		ids = append(ids, int32(m.Index))
	}
	band := rtree.Bulk(bandPts, ids)
	src.KthPoint = func(ctx context.Context, w vec.Weight, kk int) (topk.Result, bool, error) {
		if kk == k {
			return topk.KthPointCtx(ctx, band, w, kk)
		}
		return topk.KthPointCtx(ctx, tr, w, kk)
	}
	return src
}

// FuzzRefineDims is the dimension-generic differential of the refinement
// algorithms: over random datasets of every shape at d in [2, 16] and
// n <= 400, random k, why-not vectors (zero components included), sample
// counts, query-point counts up to 69 and seeds, MWK, MQWK
// and the fused WhyNotRefine with a band-backed Source must equal the
// nil-Source oracle field for field, penalties bit for bit; the
// fused refinements must equal the standalone ones; and MQWK's penalty
// must not exceed λ times MWK's, exactly. The query-point
// mode also reaches the degenerate universes: a point equal to a data
// point, one that dominates the whole dataset (empty candidate list) and
// one on a dominance chain (candidates, but none incomparable).
func FuzzRefineDims(f *testing.F) {
	//            seed      d-2       n-1          k-1       shape     q mode    |S|        |Q|
	f.Add(int64(1), uint8(0), uint16(300), uint8(4), uint8(0), uint8(0), uint8(20), uint8(5))       // d=2 UN
	f.Add(int64(2), uint8(1), uint16(399), uint8(9), uint8(1), uint8(1), uint8(10), uint8(3))       // d=3 CO, q a data point
	f.Add(int64(3), uint8(3), uint16(250), uint8(2), uint8(2), uint8(0), uint8(16), uint8(4))       // d=5 AC
	f.Add(int64(4), uint8(4), uint16(399), uint8(6), uint8(0), uint8(0), uint8(12), uint8(128+2))   // d=6 UN, many box points
	f.Add(int64(5), uint8(11), uint16(200), uint8(3), uint8(1), uint8(0), uint8(8), uint8(4))       // d=13 CO
	f.Add(int64(6), uint8(14), uint16(120), uint8(1), uint8(0), uint8(1), uint8(12), uint8(2))      // d=16 UN, q a data point
	f.Add(int64(7), uint8(4), uint16(90), uint8(5), uint8(0), uint8(2), uint8(18), uint8(5))        // d=6, empty candidate list
	f.Add(int64(8), uint8(11), uint16(150), uint8(7), uint8(0), uint8(3), uint8(5), uint8(4))       // d=13, dominance chain
	f.Add(int64(9), uint8(5), uint16(399), uint8(3), uint8(2), uint8(4), uint8(24), uint8(3))       // d=7 AC, low rank
	f.Add(int64(10), uint8(2), uint16(350), uint8(0), uint8(0), uint8(4), uint8(8), uint8(128+4))   // d=4 UN, k=1, low rank
	f.Add(int64(11), uint8(6), uint16(380), uint8(2), uint8(1), uint8(4), uint8(20), uint8(5))      // d=8 CO, low rank
	f.Add(int64(12), uint8(4), uint16(330), uint8(3), uint8(0), uint8(5), uint8(13), uint8(4))      // d=6 UN
	f.Add(int64(13), uint8(4), uint16(399), uint8(2), uint8(0), uint8(4), uint8(24), uint8(5))      // d=6 UN, low rank
	f.Add(int64(14), uint8(11), uint16(399), uint8(2), uint8(1), uint8(9), uint8(24), uint8(5))     // d=13 CO, low rank
	f.Add(int64(103), uint8(4), uint16(399), uint8(0), uint8(1), uint8(4), uint8(24), uint8(5))     // d=6 CO, k=1, band-trimmed
	f.Add(int64(105), uint8(3), uint16(399), uint8(2), uint8(0), uint8(4), uint8(24), uint8(5))     // d=5 UN, band-trimmed
	f.Add(int64(107), uint8(6), uint16(399), uint8(1), uint8(1), uint8(4), uint8(24), uint8(5))     // d=8 CO, band-trimmed
	f.Add(int64(406), uint8(8), uint16(398), uint8(4), uint8(2), uint8(9), uint8(23), uint8(2))     // d=10 AC, low rank: MQWK above λ·MWK before per-point streams
	f.Add(int64(501), uint8(2), uint16(399), uint8(3), uint8(1), uint8(4), uint8(12), uint8(4))     // d=4 CO, low rank: a zero-width box coordinate (q_min_j = q_j)
	f.Add(int64(502), uint8(1), uint16(399), uint8(9), uint8(0), uint8(0), uint8(12), uint8(4))     // d=3 UN, k0 = 266 > 128: untrimmed
	f.Add(int64(15), uint8(11), uint16(399), uint8(2), uint8(0), uint8(9), uint8(16), uint8(128+3)) // d=13 UN, low rank, |Q| = 67
	f.Fuzz(func(t *testing.T, seed int64, db uint8, nb uint16, kb, shape, mode, sb, qb uint8) {
		d := 2 + int(db%15)
		n := 1 + int(nb%400)
		k := 1 + int(kb%12)
		if n < k {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		var ds *dataset.Dataset
		switch shape % 3 {
		case 0:
			ds = dataset.Independent(n, d, seed)
		case 1:
			ds = dataset.Correlated(n, d, seed)
		default:
			ds = dataset.Anticorrelated(n, d, seed)
		}
		pts := ds.Points
		wm := make([]vec.Weight, 1+rng.Intn(4))
		for i := range wm {
			wm[i] = sample.RandSimplex(rng, d)
			if rng.Intn(4) == 0 {
				wm[i][rng.Intn(d)] = 0
				renormalize(wm[i])
			}
		}
		q := make(vec.Point, d)
		switch mode % 5 {
		case 0: // a mid-ranked point near the data
			p := pts[rng.Intn(n)]
			for j := range q {
				q[j] = p[j]*0.5 + 0.3*rng.Float64()
			}
		case 1: // equal to a data point
			copy(q, pts[rng.Intn(n)])
		case 2: // dominates every point: the candidate list is empty
		case 3: // every point on one dominance chain, q among them
			for i, p := range pts {
				for j := range p {
					p[j] = float64(i+1) / float64(n+1)
				}
			}
			copy(q, pts[rng.Intn(n)])
		case 4: // just outside the top-k of nearby vectors: a k0 the band trims for
			wl, err := dataset.MakeWhyNot(ds, k, k+1+rng.Intn(8), len(wm), seed)
			if err != nil {
				t.Skip()
			}
			q, wm = wl.Q, wl.Wm
		}
		samples := int(sb % 25)
		qSamples := int(qb % 6)
		if qb&128 != 0 {
			qSamples += 64 // many box points
		}
		tr := ds.Tree()
		src := bandBackedSource(tr, pts, k)
		pm := DefaultPenaltyModel()
		ctx := context.Background()

		gotMWK, errG := MWK(ctx, tr, src, q, k, wm, samples, NewRand(seed), pm)
		wantMWK, errW := MWK(ctx, tr, nil, q, k, wm, samples, NewRand(seed), pm)
		if (errG == nil) != (errW == nil) || !reflect.DeepEqual(gotMWK, wantMWK) {
			t.Fatalf("MWK n=%d d=%d k=%d: source (%+v, %v), oracle (%+v, %v)", n, d, k, gotMWK, errG, wantMWK, errW)
		}
		gotMQWK, errG := MQWK(ctx, tr, src, q, k, wm, samples, qSamples, seed, pm)
		wantMQWK, errW := MQWK(ctx, tr, nil, q, k, wm, samples, qSamples, seed, pm)
		if (errG == nil) != (errW == nil) || !reflect.DeepEqual(gotMQWK, wantMQWK) {
			t.Fatalf("MQWK n=%d d=%d k=%d: source (%+v, %v), oracle (%+v, %v)", n, d, k, gotMQWK, errG, wantMQWK, errW)
		}
		// Point 0 is MWK's search on MWK's stream: the pure second solution
		// bounds MQWK exactly.
		if errW == nil && wantMQWK.Penalty > pm.Lambda*wantMWK.Penalty {
			t.Fatalf("MQWK n=%d d=%d k=%d: penalty %v above λ·MWK %v", n, d, k, wantMQWK.Penalty, pm.Lambda*wantMWK.Penalty)
		}
		got, errG := WhyNotRefine(ctx, tr, src, q, k, wm, samples, qSamples, seed, pm)
		want, errW := WhyNotRefine(ctx, tr, nil, q, k, wm, samples, qSamples, seed, pm)
		if (errG == nil) != (errW == nil) {
			t.Fatalf("WhyNotRefine n=%d d=%d k=%d: source error %v, oracle error %v", n, d, k, errG, errW)
		}
		// The band's k-th point may be a score-tied twin of the tree's: MQP
		// consumes the score alone, and only the diagnostic field shows it.
		for i := range want.MQP.KthPoints {
			if got.MQP.KthPoints[i].Score != want.MQP.KthPoints[i].Score {
				t.Fatalf("MQP n=%d d=%d k=%d: k-th score under wm[%d] %v, oracle %v", n, d, k, i, got.MQP.KthPoints[i].Score, want.MQP.KthPoints[i].Score)
			}
		}
		got.MQP.KthPoints, want.MQP.KthPoints = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("WhyNotRefine n=%d d=%d k=%d:\nsource %+v\noracle %+v", n, d, k, got, want)
		}
		if errW == nil && (!reflect.DeepEqual(want.MWK, wantMWK) || !reflect.DeepEqual(want.MQWK, wantMQWK)) {
			t.Fatalf("fused refinements differ from the standalone ones at n=%d d=%d k=%d", n, d, k)
		}
	})
}
