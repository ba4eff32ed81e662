package rtopk

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// FuzzCellIndex feeds arbitrary byte-derived points, weights and k through
// the materialized cell index, built over all the points (so small inputs,
// whose k is served pass-through in the product, fuzz the grid math too),
// and requires bit-identical reverse top-k membership against the
// linear-scan oracle. The weight set
// mixes simplex samples with adversarial vectors pinned exactly on cell
// edges (dyadic c/res coordinates), where the floor point-location and the
// closed-bounds re-check are most likely to disagree. A whole-query
// fallback (ok=false) is legal; a wrong answer is not.
func FuzzCellIndex(f *testing.F) {
	// Plain spread of points.
	f.Add([]byte{10, 200, 60, 90, 200, 15, 120, 120, 33, 7}, uint8(2), uint8(0))
	// Duplicate points: every pair equal — nothing may exclude its twin.
	f.Add([]byte{50, 50, 50, 50, 50, 50, 50, 50}, uint8(3), uint8(0))
	// Degenerate collinear dual lines: p = q + (c, c) keeps p's dual line
	// parallel to q's (a == b at every λ).
	f.Add([]byte{10, 10, 20, 20, 30, 30, 40, 40, 60, 60}, uint8(1), uint8(0))
	// 3-D with duplicates and a zero point.
	f.Add([]byte{0, 0, 0, 9, 9, 9, 9, 9, 9, 200, 1, 30}, uint8(4), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kb, db uint8) {
		d := 2 + int(db%2)
		n := len(data) / d
		if n < 1 || n > 64 {
			t.Skip()
		}
		k := int(kb%8) + 1
		pts := make([]vec.Point, n)
		for i := 0; i < n; i++ {
			p := make(vec.Point, d)
			for j := 0; j < d; j++ {
				p[j] = float64(data[i*d+j])
			}
			pts[i] = p
		}
		q := append(vec.Point(nil), pts[n-1]...)
		g := gridOver(pts, k)
		if g == nil {
			t.Fatalf("n=%d d=%d k=%d: a grid over at most 64 points declined", n, d, k)
		}
		rng := rand.New(rand.NewSource(int64(kb)*257 + int64(db) + int64(n)))
		W := make([]vec.Weight, 0, 12)
		for i := 0; i < 8; i++ {
			W = append(W, sample.RandSimplex(rng, d))
		}
		res := float64(g.Res())
		for i := 0; i < 4; i++ {
			// Exactly on a cell edge: dyadic first coordinates, remainder
			// on the last. Dyadic sums keep the weight exactly valid.
			w := make(vec.Weight, d)
			rest := 1.0
			for j := 0; j < d-1; j++ {
				c := float64(rng.Intn(int(res) + 1))
				v := c / res
				if v > rest {
					v = rest
				}
				w[j] = v
				rest -= v
			}
			w[d-1] = rest
			W = append(W, w)
		}
		got, _, ok, err := g.ReverseTopK(context.Background(), W, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return // documented whole-query fallback; the caller re-runs the count descent
		}
		if want := BichromaticNaive(pts, W, q, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d d=%d k=%d: cell index %v, linear scan %v", n, d, k, got, want)
		}
	})
}
