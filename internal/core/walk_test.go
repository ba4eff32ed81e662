package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/skyband"
	"wqrtq/internal/vec"
)

// FuzzCandidateWalk is the differential of the §4.4 reuse walk that
// collects the universe (collect): for trees bulk-loaded, built by Insert
// and Delete, or reassembled from their nodes as recovery does (then
// mutated), at d in [2, 13], with duplicate points and coordinates on a
// coarse grid (so points tie with q and with node faces), and for q a data
// point, a node rectangle's corner, a point on a node face or a point near
// the data, the collected universe must list exactly
// dominance.Candidates' points — coordinates, in its order — and the walk
// must count the same nodes. The walk's fused classification against the
// sample box [lo, q] must equal boxBits' over the collected image: the
// same maybe and le lists, and le's ids those of Candidates.
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
	f.Add(int64(10), uint8(1), uint16(599), uint8(6), uint8(0), uint8(0)) // d=3 bulk, reassembled, q near the data
	f.Add(int64(11), uint8(2), uint16(500), uint8(7), uint8(3), uint8(1)) // d=4 mutated, reassembled, mutated again, q on a node face
	f.Add(int64(12), uint8(1), uint16(599), uint8(4), uint8(1), uint8(0)) // d=3 duplicates on a grid, q a data point
	f.Add(int64(13), uint8(0), uint16(599), uint8(5), uint8(1), uint8(1)) // d=2 grid, inserted, q a data point
	f.Fuzz(func(t *testing.T, seed int64, db uint8, nb uint16, build, mode, page uint8) {
		d := 2 + int(db%12)
		n := 1 + int(nb%600)
		rng := rand.New(rand.NewSource(seed))
		pts := dataset.Independent(n, d, seed).Points
		if build%8 >= 4 && build%8 < 6 {
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
		switch build % 8 {
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
		case 3, 7:
			tr = rtree.Bulk(pts[:n/2+1], nil, opts)
			for i := n/2 + 1; i < n; i++ {
				tr.Insert(pts[i], int32(i))
			}
			for i := 0; i < n; i += 4 {
				tr.Delete(pts[i], int32(i))
			}
			if build%8 == 7 {
				tr = reassemble(t, tr)
				for i := 1; i < n; i += 4 {
					tr.Delete(pts[i], int32(i))
				}
				for i := 0; i < n; i += 8 {
					tr.Insert(pts[i], int32(i))
				}
			}
		case 6:
			tr = reassemble(t, rtree.Bulk(pts, nil, opts))
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
		// The sample box: q alone, or down to a random qMin, some of whose
		// coordinates may exceed q's (the box clamps them).
		var qMin vec.Point
		if rng.Intn(4) > 0 {
			qMin = make(vec.Point, d)
			for j := range qMin {
				qMin[j] = q[j] * 1.2 * rng.Float64()
			}
		}

		var u universe
		u.setBox(q, qMin)
		walked := u.collect(tr)
		want, visited := dominance.Candidates(tr, q)
		if walked != visited {
			t.Fatalf("walk visited %d nodes, Candidates %d", walked, visited)
		}
		if u.all.Len() != len(want) {
			t.Fatalf("universe holds %d points, Candidates %d", u.all.Len(), len(want))
		}
		for i, c := range want {
			for j, v := range c.Point {
				if u.all.Col(j)[i] != v {
					t.Fatalf("position %d: coordinate %d is %v, Candidates %v", i, j, u.all.Col(j)[i], v)
				}
			}
		}
		var maybe, le []int32
		bits := make([]uint8, u.all.Len())
		for base := 0; base < len(bits); base += boxChunk {
			boxBits(&u.all, base, u.lo, u.hi, bits[base:min(base+boxChunk, len(bits))])
		}
		for p, c := range bits {
			if c != 0 {
				if c&1 != 0 {
					le = append(le, int32(len(maybe)))
				}
				maybe = append(maybe, int32(p))
			}
		}
		if !slices.Equal(u.maybe, maybe) || !slices.Equal(u.le, le) {
			t.Fatalf("fused classification: maybe %v le %v, boxBits maybe %v le %v", u.maybe, u.le, maybe, le)
		}
		for l, m := range le {
			if id := want[maybe[m]].ID; u.leIDs[l] != id {
				t.Fatalf("le point %d: id %d, Candidates %d", l, u.leIDs[l], id)
			}
		}
	})
}

// reassemble rebuilds tr node by node through rtree.Assembler, as recovery
// does from a checkpoint's pages.
func reassemble(t testing.TB, tr *rtree.Tree) *rtree.Tree {
	t.Helper()
	a, err := rtree.NewAssembler(tr.Dim(), tr.MaxEntries(), tr.MinEntries(), tr.NodeCount())
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	var add func(n *rtree.Node) int
	add = func(n *rtree.Node) int {
		idx := next
		next++
		var err error
		if n.IsLeaf() {
			ids := make([]int32, n.NumEntries())
			pts := make([]vec.Point, n.NumEntries())
			for i := range ids {
				ids[i], pts[i] = n.PointID(i), n.Point(i)
			}
			err = a.AddLeaf(idx, ids, pts)
		} else {
			rects := make([]rtree.Rect, n.NumEntries())
			kids := make([]int, n.NumEntries())
			for i := range rects {
				rects[i] = rtree.CloneRect(n.EntryRect(i))
				kids[i] = add(n.Child(i))
			}
			err = a.AddInternal(idx, rects, kids)
		}
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	root := add(tr.Root())
	out, err := a.Finish(root, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	return out
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
// the node walk collecting and classifying it and prepareUniverse (bitmap
// index, below-q lists and k0, band trim) for MQWK's box [q_min, q], on UN
// n = 100k, d = 3 and Table-1 questions (k = 10, actual rank 101,
// |Wm| = 1), over three trees holding the data: bulk-loaded, recovered
// (reassembled node by node, as from a checkpoint's pages) and 10 %
// mutated (5k deletes and 5k inserts after the bulk load). The Source
// mirrors the Index's: each tree's trim bands are built once, before the
// timer, as a warm server holds them. One op prepares one question's
// universe.
func BenchmarkCandidateUniverse(b *testing.B) {
	ds := dataset.Independent(100000, 3, 1)
	bulk := ds.Tree()
	mutated := bulk.Clone()
	extra := dataset.Independent(5000, 3, 2).Points
	for i := range extra {
		mutated.Delete(ds.Points[2*i], int32(2*i))
		mutated.Insert(extra[i], int32(len(ds.Points)+i))
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
		mqp, err := MQP(context.Background(), bulk, nil, wl.Q, wl.K, wl.Wm, DefaultPenaltyModel())
		if err != nil {
			b.Fatal(err)
		}
		qs = append(qs, question{wl.Q, mqp.RefinedQ, wl.Wm})
	}
	for _, arm := range []struct {
		name string
		tr   *rtree.Tree
	}{
		{"bulk", bulk},
		{"recovered", reassemble(b, bulk)},
		{"mutated", mutated},
	} {
		b.Run(arm.name, func(b *testing.B) {
			tr := arm.tr
			bands := skyband.NewCache(tr, nil)
			src := &Source{
				Kernel: kernel.NewCounters(),
				Routes: new(RouteCounters),
				Band: func(bound int) (BandImage, bool) {
					bandK := 16 // the Index's rounding and cap (coreSource)
					for bandK < bound {
						bandK <<= 1
					}
					if bandK > 128 {
						return BandImage{}, false
					}
					// Band waits for the build TrimBand would start in the
					// background, as a warm server has it; TrimBand's size
					// limit is n/16.
					if bb := bands.Band(bandK); !bb.Full() && bb.Size() <= tr.Len()/16 {
						ids, counts := bb.Members()
						return BandImage{Coords: bb.Coords(), IDs: ids, Counts: counts}, true
					}
					return BandImage{}, false
				},
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
		})
	}
}
