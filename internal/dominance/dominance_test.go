package dominance

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"wqrtq/internal/rtree"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

func paperPoints() []vec.Point {
	return []vec.Point{
		{2, 1}, {6, 3}, {1, 9}, {9, 3}, {7, 5}, {5, 8}, {3, 7},
	}
}

func randPoints(r *rand.Rand, n, d int, scale float64) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float64() * scale
		}
		pts[i] = p
	}
	return pts
}

func randWeight(r *rand.Rand, d int) vec.Weight {
	w := make(vec.Weight, d)
	s := 0.0
	for i := range w {
		w[i] = r.Float64() + 1e-3
		s += w[i]
	}
	for i := range w {
		w[i] /= s
	}
	return w
}

func ids(rs []Ref) []int32 {
	out := make([]int32, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func naiveSets(pts []vec.Point, q vec.Point) (d, i []int32) {
	for idx, p := range pts {
		switch {
		case vec.Dominates(p, q):
			d = append(d, int32(idx))
		case !vec.Equal(p, q) && !vec.Dominates(q, p): // incomparable
			i = append(i, int32(idx))
		}
	}
	return
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFindIncomPaperExample(t *testing.T) {
	tr := rtree.Bulk(paperPoints(), nil, rtree.Options{PageSize: 128})
	q := vec.Point{4, 4}
	s := FindIncom(tr, q)
	// p1=(2,1) dominates q; p3, p4, p7 (and p2=(6,3)? 6>4, 3<4 → incomparable)
	// p5=(7,5), p6=(5,8) are dominated by q.
	if got := ids(s.D); !equalIDs(got, []int32{0}) {
		t.Errorf("D = %v, want [0] (p1)", got)
	}
	if got := ids(s.I); !equalIDs(got, []int32{1, 2, 3, 6}) {
		t.Errorf("I = %v, want [1 2 3 6] (p2, p3, p4, p7)", got)
	}
}

func TestFindIncomAgainstNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(400)
		d := 2 + r.Intn(4)
		pts := randPoints(r, n, d, 10)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d, 10)[0]
		s := FindIncom(tr, q)
		wd, wi := naiveSets(pts, q)
		return equalIDs(ids(s.D), wd) && equalIDs(ids(s.I), wi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestFindIncomPrunesDominatedSubtrees(t *testing.T) {
	// With q at the origin-most corner, everything is dominated by q, and
	// the traversal should visit almost nothing below the root.
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 20000, 3, 10)
	for i := range pts {
		for j := range pts[i] {
			pts[i][j] += 1 // keep strictly above q
		}
	}
	tr := rtree.Bulk(pts, nil)
	s := FindIncom(tr, vec.Point{0.5, 0.5, 0.5})
	if len(s.D) != 0 || len(s.I) != 0 {
		t.Fatalf("expected empty sets, got |D|=%d |I|=%d", len(s.D), len(s.I))
	}
	if s.NodesVisited > 2 {
		t.Errorf("visited %d nodes, expected pruning at the root level", s.NodesVisited)
	}
}

func TestRankMatchesTopkRank(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		d := 2 + r.Intn(3)
		pts := randPoints(r, n, d, 10)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d, 10)[0]
		s := FindIncom(tr, q)
		w := randWeight(r, d)
		return s.Rank(w, q) == topk.RankNaive(pts, w, vec.Score(w, q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRankPaperExample(t *testing.T) {
	tr := rtree.Bulk(paperPoints(), nil, rtree.Options{PageSize: 128})
	q := vec.Point{4, 4}
	s := FindIncom(tr, q)
	kevin := vec.Weight{0.1, 0.9}
	julia := vec.Weight{0.9, 0.1}
	if got := s.Rank(kevin, q); got != 4 {
		t.Errorf("rank under Kevin = %d, want 4", got)
	}
	if got := s.Rank(julia, q); got != 4 {
		t.Errorf("rank under Julia = %d, want 4", got)
	}
}

func TestCandidatesCoverAllBoxQueries(t *testing.T) {
	// For any q' <= q, Classify(Candidates(q), q') must equal FindIncom(q').
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		d := 2 + r.Intn(3)
		pts := randPoints(r, n, d, 10)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d, 10)[0]
		cands, _ := Candidates(tr, q)
		for trial := 0; trial < 5; trial++ {
			qp := make(vec.Point, d)
			for j := range qp {
				qp[j] = q[j] * r.Float64()
			}
			got := Classify(cands, qp)
			want := FindIncom(tr, qp)
			if !equalIDs(ids(got.D), ids(want.D)) || !equalIDs(ids(got.I), ids(want.I)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCandidatesMatchFindIncomWalk pins what the standalone and fused
// refinement entry points rely on: classified at q itself, the candidate
// list is FindIncom's D and I in the same encounter order, and the two
// walks expand the same nodes.
func TestCandidatesMatchFindIncomWalk(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(3000)
		d := 2 + r.Intn(3)
		pts := randPoints(r, n, d, 10)
		if seed%3 == 0 {
			pts = append(pts, pts[:n/4]...) // duplicates
		}
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		q := randPoints(r, 1, d, 10)[0]
		if seed%4 == 0 {
			q = vec.Clone(pts[r.Intn(len(pts))]) // q equal to data points
		}
		cands, visited := Candidates(tr, q)
		got, want := Classify(cands, q), FindIncom(tr, q)
		if visited != want.NodesVisited || len(cands) != len(want.D)+len(want.I) {
			t.Fatalf("seed %d: %d candidates over %d nodes, FindIncom %d+%d over %d", seed, len(cands), visited, len(want.D), len(want.I), want.NodesVisited)
		}
		for i := range want.D {
			if got.D[i].ID != want.D[i].ID {
				t.Fatalf("seed %d: D order differs at %d", seed, i)
			}
		}
		for i := range want.I {
			if got.I[i].ID != want.I[i].ID {
				t.Fatalf("seed %d: I order differs at %d", seed, i)
			}
		}
	}
}

func TestCandidatesExcludeDominated(t *testing.T) {
	tr := rtree.Bulk(paperPoints(), nil, rtree.Options{PageSize: 128})
	cands, visited := Candidates(tr, vec.Point{4, 4})
	// p5=(7,5) and p6=(5,8) are dominated by q and must be excluded.
	got := ids(cands)
	if !equalIDs(got, []int32{0, 1, 2, 3, 6}) {
		t.Errorf("candidates = %v, want [0 1 2 3 6]", got)
	}
	if visited < 1 {
		t.Error("visited < 1")
	}
}

func TestClassifyIdenticalPoint(t *testing.T) {
	// A candidate equal to q' belongs to neither D nor I.
	cands := []Ref{{ID: 0, Point: vec.Point{2, 2}}}
	s := Classify(cands, vec.Point{2, 2})
	if len(s.D) != 0 || len(s.I) != 0 {
		t.Errorf("identical point misclassified: %+v", s)
	}
}

func TestSkylinePaperExample(t *testing.T) {
	// Figure 2(a): p1=(2,1) and p3=(1,9) are the undominated computers.
	got := Skyline(paperPoints())
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("skyline = %v, want [0 2] (p1, p3)", got)
	}
}

func TestSkylineAgainstNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(300)
		d := 1 + r.Intn(4)
		// Coarse grid to exercise ties and duplicates.
		pts := make([]vec.Point, n)
		for i := range pts {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = float64(r.Intn(8))
			}
			pts[i] = p
		}
		got := Skyline(pts)
		want := SkylineNaive(pts)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSkylineProperties(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	pts := randPoints(r, 500, 3, 10)
	sky := Skyline(pts)
	in := map[int]bool{}
	for _, i := range sky {
		in[i] = true
	}
	// No skyline point dominates another skyline point.
	for _, a := range sky {
		for _, b := range sky {
			if a != b && vec.Dominates(pts[a], pts[b]) {
				t.Fatalf("skyline point %d dominates skyline point %d", a, b)
			}
		}
	}
	// Every non-skyline point is dominated by (or duplicates) some skyline point.
	for i, p := range pts {
		if in[i] {
			continue
		}
		covered := false
		for _, s := range sky {
			if vec.Dominates(pts[s], p) || vec.Equal(pts[s], p) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("non-skyline point %d not dominated by any skyline point", i)
		}
	}
	if len(Skyline(nil)) != 0 {
		t.Error("empty input should give empty skyline")
	}
}
