package rtopk

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
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

// FuzzBichromaticCount is the dimension-generic differential of reverse
// top-k membership: over random datasets of every shape at d in [2, 16]
// and n <= 400, with duplicated points, any k (k >= n included), weighting
// vectors with zero components and a query point that may equal a data
// point (so score ties, which q wins, are reached), the per-vector count
// descent must return the same indices as the linear scan — on the full
// tree and on k-skyband trees, among them one with the product path's
// geometry (skyband.TreeOptions) — and account for every vector: the members counted to completion, the
// rest stopped at their k-th beater. The uncapped blocked sweep, which only
// the benchmark harness still calls, is held to the same answer.
func FuzzBichromaticCount(f *testing.F) {
	//            seed      d-2       n-1          k-1         shape     q mode
	f.Add(int64(1), uint8(0), uint16(300), uint16(4), uint8(0), uint8(0))   // d=2 UN
	f.Add(int64(2), uint8(1), uint16(399), uint16(9), uint8(1), uint8(1))   // d=3 CO, q a data point
	f.Add(int64(3), uint8(3), uint16(250), uint16(2), uint8(2), uint8(2))   // d=5 AC, duplicates
	f.Add(int64(4), uint8(4), uint16(399), uint16(9), uint8(2), uint8(1))   // d=6 AC, q a data point
	f.Add(int64(5), uint8(11), uint16(399), uint16(9), uint8(0), uint8(0))  // d=13 UN
	f.Add(int64(6), uint8(14), uint16(120), uint16(0), uint8(1), uint8(2))  // d=16 CO, k=1, duplicates
	f.Add(int64(7), uint8(2), uint16(60), uint16(60), uint8(0), uint8(1))   // d=4, k = n
	f.Add(int64(8), uint8(11), uint16(30), uint16(400), uint8(2), uint8(0)) // d=13, k > n
	f.Add(int64(9), uint8(0), uint16(0), uint16(0), uint8(0), uint8(1))     // one point, q equal to it
	f.Fuzz(func(t *testing.T, seed int64, db uint8, nb, kb uint16, shape, mode uint8) {
		d := 2 + int(db%15)
		n := 1 + int(nb%400)
		k := 1 + int(kb%450)
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
		q := make(vec.Point, d)
		switch mode % 3 {
		case 0: // near the data, competitive under some vectors
			p := pts[rng.Intn(n)]
			for j := range q {
				q[j] = p[j] * (0.6 + 0.6*rng.Float64())
			}
		case 2: // a third of the points are copies of others, q one of them
			for i := 0; i < n/3; i++ {
				pts[rng.Intn(n)] = pts[rng.Intn(n)]
			}
			fallthrough
		case 1: // equal to a data point: it ties with itself and its copies
			copy(q, pts[rng.Intn(n)])
		}
		W := make([]vec.Weight, 1+rng.Intn(24))
		for i := range W {
			W[i] = sample.RandSimplex(rng, d)
			if rng.Intn(4) == 0 {
				W[i][rng.Intn(d)] = 0
				renormalize(W[i])
			}
		}

		want := BichromaticNaive(pts, W, q, k)
		full := rtree.Bulk(pts, nil)
		var bandPts []vec.Point
		var bandIDs []int32
		for _, m := range dominance.KSkybandNaive(pts, k) {
			bandPts = append(bandPts, pts[m.Index])
			bandIDs = append(bandIDs, int32(m.Index))
		}
		// The band is loaded twice: with 1 KiB pages, so that even a band
		// of a few dozen points is several levels deep (fanout 4 at d = 13,
		// every four-wide group full), and with the geometry skyband.compute
		// gives every band tree.
		small := rtree.Bulk(bandPts, bandIDs, rtree.Options{PageSize: 1024})
		band := rtree.Bulk(bandPts, bandIDs, skyband.TreeOptions(d))
		ctx := context.Background()
		for name, tr := range map[string]*rtree.Tree{"full tree": full, "k-skyband tree, small pages": small, "k-skyband tree": band} {
			got, stats, err := BichromaticCountCtx(ctx, tr, W, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("d=%d n=%d k=%d, %s: count descent %v, linear scan %v", d, n, k, name, got, want)
			}
			if stats.Evaluated != len(got) || stats.Evaluated+stats.Pruned != len(W) || stats.CandidateSetSize != tr.Len() {
				t.Fatalf("d=%d n=%d k=%d, %s: stats %+v for %d members of %d vectors over %d points", d, n, k, name, stats, len(got), len(W), tr.Len())
			}
		}
		var coords kernel.Coords
		coords.Reset(d)
		for _, p := range bandPts {
			coords.Append(p)
		}
		swept, _, err := BichromaticCoordsCtx(ctx, &coords, W, q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept, want) {
			t.Fatalf("d=%d n=%d k=%d: blocked sweep of the band %v, linear scan %v", d, n, k, swept, want)
		}
	})
}
