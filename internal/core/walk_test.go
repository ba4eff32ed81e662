package core

import (
	"context"
	"math/rand"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

// FuzzCandidateWalk is the differential of the §4.4 reuse walk that
// collects the universe (collect): for trees bulk-loaded or built by Insert and Delete, at d in
// [2, 13], with duplicate points and coordinates on a coarse grid (so
// points tie with q and with node faces), and for q a data point, a node
// rectangle's corner, a point on a node face or a point near the data, the
// collected universe must list exactly dominance.Candidates' points — ids and
// coordinates, in its order — and the walk must count the same nodes.
func FuzzCandidateWalk(f *testing.F) {
	//            seed      d-2       n-1          build     q mode    page
	f.Add(int64(1), uint8(1), uint16(500), uint8(0), uint8(0), uint8(0))  // d=3 bulk, q near the data
	f.Add(int64(2), uint8(0), uint16(300), uint8(1), uint8(1), uint8(1))  // d=2 inserted, q a data point
	f.Add(int64(3), uint8(4), uint16(599), uint8(2), uint8(2), uint8(2))  // d=6 inserted then deleted, q a node corner
	f.Add(int64(4), uint8(11), uint16(400), uint8(0), uint8(3), uint8(0)) // d=13 bulk, q on a node face
	f.Add(int64(5), uint8(1), uint16(599), uint8(3), uint8(3), uint8(1))  // d=3 bulk then mutated, q on a node face
	f.Add(int64(6), uint8(2), uint16(450), uint8(4), uint8(1), uint8(2))  // d=4 duplicates on a grid, q a data point
	f.Add(int64(7), uint8(11), uint16(599), uint8(5), uint8(2), uint8(1)) // d=13 grid, inserted, q a node corner
	f.Add(int64(8), uint8(0), uint16(0), uint8(1), uint8(0), uint8(0))    // one point
	f.Add(int64(9), uint8(0), uint16(0), uint8(3), uint8(2), uint8(0))    // one point, deleted: an empty tree
	f.Fuzz(func(t *testing.T, seed int64, db uint8, nb uint16, build, mode, page uint8) {
		d := 2 + int(db%12)
		n := 1 + int(nb%600)
		rng := rand.New(rand.NewSource(seed))
		pts := dataset.Independent(n, d, seed).Points
		if build%6 >= 4 {
			// Coordinates on a 1/8 grid and a third of the points repeated:
			// ties everywhere, with q and with node faces.
			for i, p := range pts {
				if i > 0 && rng.Intn(3) == 0 {
					copy(p, pts[rng.Intn(i)])
					continue
				}
				for j := range p {
					p[j] = float64(int(p[j]*8)) / 8
				}
			}
		}
		opts := rtree.Options{PageSize: []int{256, 512, 4096}[page%3]}
		var tr *rtree.Tree
		switch build % 6 {
		case 0, 4:
			tr = rtree.Bulk(pts, nil, opts)
		case 1, 5:
			tr = rtree.New(d, opts)
			for i, p := range pts {
				tr.Insert(p, int32(i))
			}
		case 2:
			tr = rtree.New(d, opts)
			for i, p := range pts {
				tr.Insert(p, int32(i))
			}
			for i, p := range pts {
				if rng.Intn(3) == 0 {
					tr.Delete(p, int32(i))
				}
			}
		case 3:
			tr = rtree.Bulk(pts[:n/2+1], nil, opts)
			for i := n/2 + 1; i < n; i++ {
				tr.Insert(pts[i], int32(i))
			}
			for i := 0; i < n; i += 4 {
				tr.Delete(pts[i], int32(i))
			}
		}
		q := make(vec.Point, d)
		switch mode % 4 {
		case 0: // near the data
			p := pts[rng.Intn(n)]
			for j := range q {
				q[j] = p[j]*0.5 + 0.3*rng.Float64()
			}
		case 1: // a data point
			copy(q, pts[rng.Intn(n)])
		case 2, 3: // a node rectangle's corner, or a point on one of its faces
			r := randomRect(tr, rng, pts[0])
			for j := range q {
				switch {
				case mode%4 == 2 && rng.Intn(2) == 0:
					q[j] = r.Min[j]
				case mode%4 == 2:
					q[j] = r.Max[j]
				default:
					q[j] = r.Min[j] + rng.Float64()*(r.Max[j]-r.Min[j])
				}
			}
			if mode%4 == 3 {
				j := rng.Intn(d)
				q[j] = []float64{r.Min[j], r.Max[j]}[rng.Intn(2)]
			}
		}

		var u universe
		walked := u.collect(tr, q)
		want, visited := dominance.Candidates(tr, q)
		if walked != visited {
			t.Fatalf("walk visited %d nodes, Candidates %d", walked, visited)
		}
		if u.all.Len() != len(want) || len(u.ids) != len(want) {
			t.Fatalf("universe holds %d points (%d ids), Candidates %d", u.all.Len(), len(u.ids), len(want))
		}
		for i, c := range want {
			if u.ids[i] != c.ID {
				t.Fatalf("position %d: id %d, Candidates %d", i, u.ids[i], c.ID)
			}
			for j, v := range c.Point {
				if u.all.Col(j)[i] != v {
					t.Fatalf("position %d: coordinate %d is %v, Candidates %v", i, j, u.all.Col(j)[i], v)
				}
			}
		}
	})
}

// randomRect returns the bounding rectangle of a random non-root node of
// tr, a leaf root's first point, or fallback's degenerate rectangle when
// the tree is empty.
func randomRect(tr *rtree.Tree, rng *rand.Rand, fallback vec.Point) rtree.Rect {
	n := tr.Root()
	if n.NumEntries() == 0 {
		return rtree.PointRect(fallback)
	}
	r := n.EntryRect(0)
	for !n.IsLeaf() {
		i := rng.Intn(n.NumEntries())
		r = n.EntryRect(i)
		if rng.Intn(3) == 0 {
			break
		}
		n = n.Child(i)
	}
	return r
}

// BenchmarkCandidateUniverse is the layer row of the call-fixed universe:
// the node walk collecting it and prepareUniverse (maybe list, bitmap index, below-q
// lists and k0, band trim) for MQWK's box [q_min, q], on UN n = 100k,
// d = 3 and Table-1 questions (k = 10, actual rank 101, |Wm| = 1). The
// Source mirrors the Index's: the trim bands are built once, before the
// timer, as a warm server holds them. One op
// prepares one question's universe.
func BenchmarkCandidateUniverse(b *testing.B) {
	ds := dataset.Independent(100000, 3, 1)
	tr := ds.Tree()
	bands := skyband.NewCache(tr, nil)
	src := &Source{
		Kernel: kernel.NewCounters(),
		Routes: new(RouteCounters),
		BandCounts: func(bound int) []int32 {
			bandK := 16 // the Index's rounding and cap (coreSource)
			for bandK < bound {
				bandK <<= 1
			}
			if bandK > 128 {
				return nil
			}
			// Band waits for the build TrimBand would start in the
			// background, as a warm server has it; TrimBand's size limit
			// is n/16.
			if bb := bands.Band(bandK); !bb.Full() && bb.Size() <= tr.Len()/16 {
				return bb.Counts()
			}
			return nil
		},
	}
	type question struct {
		q, qMin vec.Point
		wm      []vec.Weight
	}
	var qs []question
	for seed := int64(1); len(qs) < 8; seed++ {
		wl, err := dataset.MakeWhyNot(ds, 10, 101, 1, seed)
		if err != nil {
			continue
		}
		mqp, err := MQP(context.Background(), tr, src, wl.Q, wl.K, wl.Wm, DefaultPenaltyModel())
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, question{wl.Q, mqp.RefinedQ, wl.Wm})
	}
	sc := getRankScratch()
	defer putRankScratch(sc)
	points := 0
	for _, c := range qs { // warm the scratch and the trim bands
		sc.candidates(tr, src, c.q, c.qMin, c.wm)
		points += sc.uni.all.Len()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := qs[i%len(qs)]
		sc.candidates(tr, src, c.q, c.qMin, c.wm)
	}
	b.ReportMetric(float64(points)/float64(len(qs)), "points/universe")
}
