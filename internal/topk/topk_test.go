package topk

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// paperPoints is the computer dataset of Figure 1(a).
func paperPoints() []vec.Point {
	return []vec.Point{
		{2, 1}, {6, 3}, {1, 9}, {9, 3}, {7, 5}, {5, 8}, {3, 7},
	}
}

func paperTree() *rtree.Tree {
	return rtree.Bulk(paperPoints(), nil, rtree.Options{PageSize: 128})
}

func randPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = r.Float64() * 10
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

func TestTopKPaperExample(t *testing.T) {
	tr := paperTree()
	// TOP3(w1=Julia=(0.9,0.1)) = {p1, p2, p4}? No: the paper says
	// TOP3(w1) = {p1, p2, p4} for w=(0.1,0.9) (Kevin) in §3:
	// "Take the dataset P shown in Figure 1 as an example. We have
	// TOP3(w4) = {p1, p2, p4}" — scores 1.1, 3.3, 3.6.
	kevin := vec.Weight{0.1, 0.9}
	got := TopK(tr, kevin, 3)
	wantIDs := []int32{0, 1, 3} // p1, p2, p4
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	for i, r := range got {
		if r.ID != wantIDs[i] {
			t.Errorf("rank %d: id = %d, want %d", i+1, r.ID, wantIDs[i])
		}
	}
	// Julia (0.9, 0.1): ranked p3 (1.8), p1 (1.9), p7 (3.4).
	julia := vec.Weight{0.9, 0.1}
	got = TopK(tr, julia, 3)
	wantIDs = []int32{2, 0, 6}
	for i, r := range got {
		if r.ID != wantIDs[i] {
			t.Errorf("julia rank %d: id = %d, want %d", i+1, r.ID, wantIDs[i])
		}
	}
}

func TestKthPointPaperExample(t *testing.T) {
	// Figure 5(b): the top 3-rd points for Kevin's and Julia's vectors are
	// p4 and p7 respectively.
	tr := paperTree()
	r, ok := KthPoint(tr, vec.Weight{0.1, 0.9}, 3)
	if !ok || r.ID != 3 {
		t.Errorf("Kevin k-th point = %v, want p4 (id 3)", r.ID)
	}
	r, ok = KthPoint(tr, vec.Weight{0.9, 0.1}, 3)
	if !ok || r.ID != 6 {
		t.Errorf("Julia k-th point = %v, want p7 (id 6)", r.ID)
	}
	// k beyond dataset size.
	if _, ok := KthPoint(tr, vec.Weight{0.5, 0.5}, 8); ok {
		t.Error("KthPoint accepted k > |P|")
	}
}

func TestRankPaperExample(t *testing.T) {
	tr := paperTree()
	q := vec.Point{4, 4}
	// §4.3: actual rankings of q under Kevin's and Julia's vectors are 4.
	for _, w := range []vec.Weight{{0.1, 0.9}, {0.9, 0.1}} {
		if got := Rank(tr, w, vec.Score(w, q)); got != 4 {
			t.Errorf("Rank(q, %v) = %d, want 4", w, got)
		}
	}
	// Tony and Anna rank q within top-3 (BRTOP3 result, §3).
	if !InTopK(tr, vec.Weight{0.5, 0.5}, q, 3) {
		t.Error("q should be in Tony's top-3")
	}
	if !InTopK(tr, vec.Weight{0.3, 0.7}, q, 3) {
		t.Error("q should be in Anna's top-3")
	}
	if InTopK(tr, vec.Weight{0.1, 0.9}, q, 3) {
		t.Error("q should not be in Kevin's top-3")
	}
}

func TestExplainPaperExample(t *testing.T) {
	// For Kevin, p1, p2, p4 are responsible for excluding q (§3).
	tr := paperTree()
	q := vec.Point{4, 4}
	got, _ := ExplainCtx(context.Background(), tr, vec.Weight{0.1, 0.9}, q)
	if len(got) != 3 {
		t.Fatalf("explanation size = %d, want 3", len(got))
	}
	want := []int32{0, 1, 3}
	for i, r := range got {
		if r.ID != want[i] {
			t.Errorf("explanation[%d] = p%d, want p%d", i, r.ID+1, want[i]+1)
		}
	}
}

func TestTopKAgainstNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(400)
		d := 2 + r.Intn(4)
		pts := randPoints(r, n, d)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		w := randWeight(r, d)
		k := 1 + r.Intn(20)
		got := TopK(tr, w, k)
		want := TopKNaive(pts, w, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Scores must agree exactly in rank order (ids may differ on
			// exact ties, which are measure-zero for random data).
			if got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRankAgainstNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		d := 2 + r.Intn(3)
		pts := randPoints(r, n, d)
		tr := rtree.Bulk(pts, nil, rtree.Options{PageSize: 256})
		w := randWeight(r, d)
		q := randPoints(r, 1, d)[0]
		fq := vec.Score(w, q)
		return Rank(tr, w, fq) == RankNaive(pts, w, fq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestIteratorEmitsAscendingScores(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pts := randPoints(r, 1000, 3)
	tr := rtree.Bulk(pts, nil)
	w := randWeight(r, 3)
	it := NewIteratorCtx(context.Background(), tr, w)
	prev := -1.0
	count := 0
	for {
		res, ok := it.Next()
		if !ok {
			break
		}
		if res.Score < prev {
			t.Fatalf("score %v after %v", res.Score, prev)
		}
		prev = res.Score
		count++
	}
	if count != 1000 {
		t.Fatalf("iterator emitted %d points, want 1000", count)
	}
	if it.visited == 0 {
		t.Error("no node visited after a full scan")
	}
}

func TestIteratorEarlyTerminationVisitsFewNodes(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	pts := randPoints(r, 50000, 2)
	tr := rtree.Bulk(pts, nil)
	w := randWeight(r, 2)
	it := NewIteratorCtx(context.Background(), tr, w)
	for i := 0; i < 10; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatal("iterator exhausted early")
		}
	}
	if it.visited > tr.NodeCount()/4 {
		t.Errorf("visited %d of %d nodes for top-10; expected strong pruning",
			it.visited, tr.NodeCount())
	}
}

func TestEmptyTreeAndEdgeK(t *testing.T) {
	tr := rtree.New(2)
	if got := TopK(tr, vec.Weight{0.5, 0.5}, 5); len(got) != 0 {
		t.Errorf("TopK on empty tree = %v", got)
	}
	if got := Rank(tr, vec.Weight{0.5, 0.5}, 1); got != 1 {
		t.Errorf("Rank on empty tree = %d, want 1", got)
	}
	if TopK(paperTree(), vec.Weight{0.5, 0.5}, 0) != nil {
		t.Error("TopK with k=0 should be nil")
	}
	if TopKNaive(paperPoints(), vec.Weight{0.5, 0.5}, 0) != nil {
		t.Error("TopKNaive with k=0 should be nil")
	}
}

func TestTopKNaiveStability(t *testing.T) {
	pts := []vec.Point{{1, 1}, {1, 1}, {2, 2}}
	got := TopKNaive(pts, vec.Weight{0.5, 0.5}, 2)
	if got[0].ID != 0 || got[1].ID != 1 {
		t.Errorf("tie order = %d,%d, want 0,1", got[0].ID, got[1].ID)
	}
}

func TestRankTieSemantics(t *testing.T) {
	// Rank counts only strictly smaller scores: q tied with a point keeps
	// the better rank (q wins ties, Definition 1).
	pts := []vec.Point{{1, 1}, {2, 2}, {3, 3}}
	tr := rtree.Bulk(pts, nil)
	w := vec.Weight{0.5, 0.5}
	if got := Rank(tr, w, 2.0); got != 2 {
		t.Errorf("Rank(tied score) = %d, want 2", got)
	}
}
