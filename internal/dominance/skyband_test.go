package dominance

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// genPoints builds the three workload shapes the differential suites use:
// uniform, correlated (clustered near the diagonal, clamped so duplicates
// occur) and anticorrelated (large skylines).
func genPoints(shape string, n, d int, rng *rand.Rand) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		switch shape {
		case "CO":
			base := rng.Float64()
			for j := range p {
				v := base + 0.1*(rng.Float64()-0.5)
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				// Coarse grid so exact duplicates and ties occur.
				p[j] = float64(int(v*10)) / 10
			}
		case "AC":
			s := 0.8 + 0.4*rng.Float64()
			acc := 0.0
			for j := 0; j < d-1; j++ {
				v := rng.Float64() * (s - acc) / float64(d-j)
				p[j] = v
				acc += v
			}
			p[d-1] = s - acc
		default:
			for j := range p {
				p[j] = rng.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

// treeBand runs KSkyband over pts bulk-loaded at the given fanout, so
// record ids are input positions, and reports its members as BandPoints in
// input order.
func treeBand(pts []vec.Point, k, limit, fanout int) ([]BandPoint, bool) {
	tr := rtree.New(1)
	if len(pts) > 0 {
		tr = rtree.Bulk(pts, nil, rtree.Options{PageSize: rtree.PageSizeFor(len(pts[0]), fanout)})
	}
	ms, complete := KSkyband(tr, k, limit)
	var out []BandPoint
	for _, m := range ms {
		out = append(out, BandPoint{Index: int(m.ID), Count: m.Count})
	}
	slices.SortFunc(out, func(a, b BandPoint) int { return a.Index - b.Index })
	return out, complete
}

// kSkyband is the whole k-skyband: KSkyband with no limit.
func kSkyband(pts []vec.Point, k int) []BandPoint {
	band, _ := treeBand(pts, k, len(pts), 8)
	return band
}

// TestKSkybandMatchesNaive validates the tree build against the quadratic
// reference — membership and exact dominance counts — across shapes,
// sizes, dimensions and k, including k beyond n.
func TestKSkybandMatchesNaive(t *testing.T) {
	for _, shape := range []string{"UN", "CO", "AC"} {
		for caseIdx := 0; caseIdx < 40; caseIdx++ {
			rng := rand.New(rand.NewSource(int64(1000*caseIdx + len(shape))))
			n := 1 + rng.Intn(200)
			d := 2 + rng.Intn(3)
			k := 1 + rng.Intn(20)
			pts := genPoints(shape, n, d, rng)
			got := kSkyband(pts, k)
			want := KSkybandNaive(pts, k)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s case %d (n=%d d=%d k=%d): kSkyband %v, naive %v",
					shape, caseIdx, n, d, k, got, want)
			}
		}
	}
}

// TestKSkybandLimit checks the self-limiting build: within the limit it is
// the whole band; past it, it stops at limit+1 members, each a true member with
// its exact count.
func TestKSkybandLimit(t *testing.T) {
	for _, shape := range []string{"UN", "CO", "AC"} {
		for caseIdx := 0; caseIdx < 20; caseIdx++ {
			rng := rand.New(rand.NewSource(int64(77*caseIdx + len(shape))))
			n := 1 + rng.Intn(200)
			k := 1 + rng.Intn(12)
			pts := genPoints(shape, n, 2+rng.Intn(3), rng)
			want := KSkybandNaive(pts, k)
			for _, limit := range []int{0, 1, len(want) - 1, len(want), n} {
				if limit < 0 {
					continue
				}
				got, complete := treeBand(pts, k, limit, 4+caseIdx%5)
				if complete != (len(want) <= limit) {
					t.Fatalf("%s case %d limit %d: complete = %t for a band of %d", shape, caseIdx, limit, complete, len(want))
				}
				if complete {
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s case %d limit %d: complete result differs from the naive band", shape, caseIdx, limit)
					}
					continue
				}
				if len(got) != limit+1 {
					t.Fatalf("%s case %d limit %d: abandoned at %d members", shape, caseIdx, limit, len(got))
				}
				exact := make(map[int]int, len(want))
				for _, m := range want {
					exact[m.Index] = m.Count
				}
				for _, m := range got {
					if c, ok := exact[m.Index]; !ok || c != m.Count {
						t.Fatalf("%s case %d limit %d: evidence %+v is no exact member", shape, caseIdx, limit, m)
					}
				}
			}
		}
	}
}

// TestKSkybandDuplicates pins the duplicate-point behavior: equal points do
// not dominate each other, so every copy of a band member stays in the
// band — exactly what duplicate-tolerant top-k needs.
func TestKSkybandDuplicates(t *testing.T) {
	pts := []vec.Point{
		{1, 1}, {1, 1}, {1, 1}, // triple duplicate of the best point
		{2, 2},             // dominated by all three copies
		{0.5, 3}, {3, 0.5}, // incomparable with everything above
	}
	band := kSkyband(pts, 2)
	want := []BandPoint{
		{Index: 0, Count: 0}, {Index: 1, Count: 0}, {Index: 2, Count: 0},
		{Index: 4, Count: 0}, {Index: 5, Count: 0},
	}
	if !reflect.DeepEqual(band, want) {
		t.Fatalf("kSkyband = %v, want %v", band, want)
	}
	// With k = 4 the dominated point (3 dominators) re-enters.
	band4 := kSkyband(pts, 4)
	if len(band4) != 6 || band4[3].Index != 3 || band4[3].Count != 3 {
		t.Fatalf("kSkyband(k=4) = %v, want all six points with counts", band4)
	}
}

// TestKSkybandEdges covers the empty and degenerate inputs.
func TestKSkybandEdges(t *testing.T) {
	if got := kSkyband(nil, 3); got != nil {
		t.Fatalf("kSkyband(nil) = %v", got)
	}
	if got := kSkyband([]vec.Point{{1, 2}}, 0); got != nil {
		t.Fatalf("kSkyband(k=0) = %v", got)
	}
	one := kSkyband([]vec.Point{{1, 2}}, 1)
	if !reflect.DeepEqual(one, []BandPoint{{Index: 0, Count: 0}}) {
		t.Fatalf("kSkyband(single) = %v", one)
	}
	// The 1-skyband is the skyline.
	rng := rand.New(rand.NewSource(7))
	pts := genPoints("UN", 120, 3, rng)
	band := kSkyband(pts, 1)
	sky := Skyline(pts)
	if len(band) != len(sky) {
		t.Fatalf("1-skyband has %d members, skyline %d", len(band), len(sky))
	}
	for i, m := range band {
		if m.Index != sky[i] || m.Count != 0 {
			t.Fatalf("1-skyband member %d = %v, skyline index %d", i, m, sky[i])
		}
	}
}

// TestKSkybandRoundingTie pins the walk order on a rounded-sum tie:
// (1e-17, 1) dominates (2e-17, 1), yet both sums round to 1, so an order
// breaking that tie by position alone would keep the victim before its
// dominator and count it no dominator.
func TestKSkybandRoundingTie(t *testing.T) {
	pts := []vec.Point{{2e-17, 1}, {1e-17, 1}}
	want := []BandPoint{{Index: 1, Count: 0}}
	if got := KSkybandNaive(pts, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("naive 1-skyband = %v, want %v", got, want)
	}
	if got := kSkyband(pts, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("1-skyband = %v, want %v", got, want)
	}
}

// fuzzValues are the coordinates FuzzKSkyband draws from: zeros of both
// signs, values whose sums round together (1e-17 and 2e-17 beside 1) and a
// coarse grid, so duplicates, ties and dominance are all common.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1e-17, 2e-17, 0.25, 0.5, 1, 1, 2, 3}

// FuzzKSkyband holds KSkyband to KSkybandNaive on small point sets at
// every k up to n+1 and every limit up to n: members and exact counts, the
// tree's leaf order, and past a limit exactly limit+1 true members. Bits of
// flat pin coordinates to one value (zero-width columns); fan sets the
// fanout, and its top bit deletes and re-inserts a third of the points so
// the walk also runs over an insertion-built structure.
func FuzzKSkyband(f *testing.F) {
	f.Add([]byte{3, 6, 2, 6}, uint8(1), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 6, 6, 6, 6}, uint8(2), uint8(2), uint8(0x81))
	f.Fuzz(func(t *testing.T, data []byte, dim, flat, fan uint8) {
		d := 1 + int(dim%5)
		n := min(len(data)/d, 48)
		if n == 0 {
			return
		}
		pts := make([]vec.Point, n)
		for i := range pts {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = 0.5
				if flat>>j&1 == 0 {
					p[j] = fuzzValues[int(data[i*d+j])%len(fuzzValues)]
				}
			}
			pts[i] = p
		}
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: rtree.PageSizeFor(d, 4+int(fan%8))})
		if fan&0x80 != 0 {
			for i := 0; i < n; i += 3 {
				if !tr.Delete(pts[i], int32(i)) {
					t.Fatalf("point %d not found", i)
				}
			}
			for i := 0; i < n; i += 3 {
				tr.Insert(pts[i], int32(i))
			}
		}
		leafPos := make([]int, n)
		pos := 0
		tr.Visit(nil, func(id int32, _ vec.Point) { leafPos[id] = pos; pos++ })
		for k := 1; k <= n+1; k++ {
			want := KSkybandNaive(pts, k)
			exact := make(map[int32]int, len(want))
			for _, m := range want {
				exact[int32(m.Index)] = m.Count
			}
			for limit := 0; limit <= n; limit++ {
				got, complete := KSkyband(tr, k, limit)
				if complete != (len(want) <= limit) {
					t.Fatalf("k=%d limit=%d: complete = %t for a band of %d", k, limit, complete, len(want))
				}
				if size := min(len(want), limit+1); len(got) != size {
					t.Fatalf("k=%d limit=%d: %d members, want %d", k, limit, len(got), size)
				}
				for i, m := range got {
					if c, ok := exact[m.ID]; !ok || c != m.Count || !vec.Equal(m.Point, pts[m.ID]) {
						t.Fatalf("k=%d limit=%d: member %+v is no exact member of %v", k, limit, m, want)
					}
					if i > 0 && leafPos[got[i-1].ID] >= leafPos[m.ID] {
						t.Fatalf("k=%d limit=%d: members out of leaf order", k, limit)
					}
				}
			}
		}
	})
}
