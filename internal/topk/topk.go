// Package topk implements linear top-k queries over an R-tree: the
// branch-and-bound ranked search (BRS) of Tao et al. [29], which the paper
// uses to find the top k-th point of each why-not weighting vector in MQP
// (Algorithm 1, lines 1–12), a progressive ranked iterator for why-not
// explanations, and a count-pruned rank counter used when evaluating
// candidate weighting vectors.
//
// BRS is I/O optimal for ranked retrieval: it maintains a min-heap of tree
// entries keyed by the smallest score attainable inside each entry's MBR
// (the lower corner under non-negative weights) and pops entries in score
// order, so data points emerge in exact rank order.
package topk

import (
	"context"
	"math"
	"sync"

	"wqrtq/internal/ctxcheck"
	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// checkInterval is how many heap pops / tree nodes a search examines between
// context-cancellation polls. Small enough that a canceled query unwinds in
// microseconds, large enough that the poll vanishes in the per-pop work
// (see DESIGN.md, "Cooperative cancellation").
const checkInterval = 64

// Result is one ranked point.
type Result struct {
	ID    int32
	Point vec.Point
	Score float64
}

// heapItem is either an R-tree subtree (idx < 0) or one data entry of a
// leaf (idx >= 0), keyed by min score. Data entries reference their leaf by
// (node, idx) instead of carrying id and point: the item stays at three
// words, so the sift swaps move half the memory and trigger one write
// barrier instead of three. Leaves reached through a heap item are pinned
// by the item's node pointer, and copy-on-write clones never mutate nodes
// of a published snapshot, so the deferred lookup is stable.
type heapItem struct {
	score float64
	node  *rtree.Node
	idx   int32
}

// minHeap is a binary min-heap over heapItem keyed by score. It implements
// push/pop directly rather than through container/heap: the interface{}
// boxing of heap.Push allocated one heapItem copy per tree entry, which
// dominated the allocation profile of every branch-and-bound search. The
// sift procedures mirror container/heap exactly, so pop order (including
// order among equal scores) is unchanged.
type minHeap []heapItem

func (h *minHeap) push(it heapItem) {
	*h = append(*h, it)
	// Sift up, as container/heap.Push would.
	s := *h
	j := len(s) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if s[parent].score <= s[j].score {
			break
		}
		s[parent], s[j] = s[j], s[parent]
		j = parent
	}
}

// pop carries a noalloc contract; push cannot, because its append is the
// heap's (amortized, pool-recycled) growth mechanism, which
// TestTopKAllocsPerOp bounds instead. pop's contract omits
// noescape(h): heapItem carries node pointers the compiler summarizes as
// "leaking param content", inherent to returning an item by value.
//
//wqrtq:contract nobce noalloc
func (h *minHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	if n < 0 {
		panic("topk: pop of empty heap")
	}
	s[0], s[n] = s[n], s[0]
	top := s[n]
	s = s[:n]
	*h = s
	// Sift down from the root, as container/heap.Pop would. The sift
	// compares exactly as the indexed form did — right child first when it
	// is smaller, then parent against the chosen child — but each branch
	// carries its own swap and the loop re-checks j against the (uint-cast,
	// hence non-negative) length, the shape the prove pass verifies without
	// bounds checks on the phi-merged index.
	j := 0
	for uint(j) < uint(len(s)) {
		sj := s[j]
		l := 2*j + 1
		if uint(l) >= uint(len(s)) {
			break
		}
		sl := s[l]
		if r := l + 1; uint(r) < uint(len(s)) && s[r].score < sl.score {
			if sj.score <= s[r].score {
				break
			}
			s[j], s[r] = s[r], sj
			j = r
		} else {
			if sj.score <= sl.score {
				break
			}
			s[j], s[l] = sl, sj
			j = l
		}
	}
	return top
}

// heapPool recycles heap backing arrays across searches. The bounded
// consumers in this package (TopKCtx, KthPointCtx, ExplainCtx) return their
// heap on exit; iterators handed to callers keep theirs for the garbage
// collector. Results never alias the heap storage — they reference tree
// point slices — so recycling is safe the moment a search returns.
var heapPool = sync.Pool{
	New: func() any {
		h := make(minHeap, 0, 256)
		return &h
	},
}

// Iterator streams the points of an R-tree in ascending score order under a
// fixed weighting vector (progressive top-k). It implements the paper's
// requirement of an algorithm that "reports incrementally every ranking
// object one-by-one" (§3).
type Iterator struct {
	w       vec.Weight
	h       *minHeap
	visited int // nodes popped, for cost accounting
	tick    ctxcheck.Ticker
	err     error // first context error observed; Next reports false after
}

// NewIteratorCtx starts a progressive ranked scan of t under w. The heap
// loop polls ctx every checkInterval pops; when the context ends, Next
// returns ok=false and Err reports the context's error.
func NewIteratorCtx(ctx context.Context, t *rtree.Tree, w vec.Weight) *Iterator {
	it := &Iterator{w: w, tick: ctxcheck.Every(ctx, checkInterval)}
	h := heapPool.Get().(*minHeap)
	*h = (*h)[:0]
	it.h = h
	root := t.Root()
	if !(root.IsLeaf() && root.NumEntries() == 0) {
		it.h.push(heapItem{score: 0, node: root, idx: -1})
	}
	return it
}

// release returns the iterator's heap to the pool. Only the bounded
// consumers in this package call it, immediately before returning; an
// iterator must not be used afterwards.
func (it *Iterator) release() {
	if it.h == nil {
		return
	}
	h := it.h
	it.h = nil
	// Zero the whole backing array, not just the live prefix: popped slots
	// beyond len still hold node pointers, and a pooled array must not pin
	// nodes of superseded copy-on-write snapshots.
	clear((*h)[:cap(*h)])
	*h = (*h)[:0]
	heapPool.Put(h)
}

// Err returns the context error that stopped the iterator, or nil if it ran
// (or is still running) to natural exhaustion.
func (it *Iterator) Err() error { return it.err }

// Next returns the next point in rank order, or ok=false when exhausted or
// canceled (distinguish via Err).
func (it *Iterator) Next() (Result, bool) {
	if it.err != nil || it.h == nil {
		return Result{}, false
	}
	for len(*it.h) > 0 {
		if err := it.tick.Tick(); err != nil {
			it.err = err
			return Result{}, false
		}
		top := it.h.pop()
		if top.idx >= 0 {
			return Result{ID: top.node.PointID(int(top.idx)), Point: top.node.Point(int(top.idx)), Score: top.score}, true
		}
		it.visited++
		n := top.node
		if n.IsLeaf() {
			//wqrtq:bounded heap pushes bounded by node fanout
			for i := 0; i < n.NumEntries(); i++ {
				it.h.push(heapItem{score: vec.Score(it.w, n.Point(i)), node: n, idx: int32(i)})
			}
		} else {
			//wqrtq:bounded heap pushes bounded by node fanout
			for i := 0; i < n.NumEntries(); i++ {
				it.h.push(heapItem{score: n.EntryRect(i).MinScore(it.w), node: n.Child(i), idx: -1})
			}
		}
	}
	return Result{}, false
}

// TopK returns the k best points of t under w in rank order (fewer if the
// tree holds fewer than k points).
func TopK(t *rtree.Tree, w vec.Weight, k int) []Result {
	out, _ := TopKCtx(context.Background(), t, w, k)
	return out
}

// TopKCtx is TopK with cooperative cancellation: the branch-and-bound heap
// loop polls ctx every checkInterval pops and returns the context's error.
func TopKCtx(ctx context.Context, t *rtree.Tree, w vec.Weight, k int) ([]Result, error) {
	if k <= 0 {
		return nil, nil
	}
	it := NewIteratorCtx(ctx, t, w)
	defer it.release()
	out := make([]Result, 0, k)
	for len(out) < k {
		r, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// KthPoint returns the point ranked exactly k-th under w (1-based), as used
// by MQP to build the safe-region constraints. ok is false when the tree has
// fewer than k points.
func KthPoint(t *rtree.Tree, w vec.Weight, k int) (Result, bool) {
	r, ok, _ := KthPointCtx(context.Background(), t, w, k)
	return r, ok
}

// KthPointCtx is KthPoint with cooperative cancellation.
func KthPointCtx(ctx context.Context, t *rtree.Tree, w vec.Weight, k int) (Result, bool, error) {
	rs, err := TopKCtx(ctx, t, w, k)
	if err != nil {
		return Result{}, false, err
	}
	if len(rs) < k {
		return Result{}, false, nil
	}
	return rs[k-1], true, nil
}

// Rank returns the rank the score fq would take under w: one plus the number
// of indexed points with a strictly smaller score (ties rank the query
// first, matching Definition 1's tie handling where q wins at equality).
//
// Subtrees whose maximum attainable score is below fq are counted through
// the per-node point counts without being descended into; subtrees whose
// minimum attainable score is at least fq are pruned outright.
func Rank(t *rtree.Tree, w vec.Weight, fq float64) int {
	r, _ := RankCtx(context.Background(), t, w, fq)
	return r
}

// RankCtx is Rank with cooperative cancellation: the count-pruned descent
// polls ctx every checkInterval nodes.
func RankCtx(ctx context.Context, t *rtree.Tree, w vec.Weight, fq float64) (int, error) {
	cnt, err := CountBelowCtx(ctx, t, w, fq)
	if err != nil {
		return 0, err
	}
	return 1 + cnt, nil
}

// CountBelowCtx returns the number of indexed points scoring strictly below
// fq under w (Rank minus one), with cooperative cancellation. It is the
// capped descent with a bound no count reaches.
func CountBelowCtx(ctx context.Context, t *rtree.Tree, w vec.Weight, fq float64) (int, error) {
	tick := ctxcheck.Every(ctx, checkInterval)
	return CountBelowCapped(t, w, fq, math.MaxInt, &tick)
}

// CountBelowCappedCtx counts points scoring strictly below fq under w,
// giving up once the count reaches cap: the return reports the (partial)
// count and whether the cap was hit. An uncapped return is the exact global
// strict-beat count. This is the fast path of skyband-backed rank queries:
// counting over a k-skyband tree is exact whenever the band count stays
// below k (any dataset with >= k beaters has >= k of them inside the band),
// and the early exit stops the descent as soon as a fallback to the full
// tree is inevitable.
func CountBelowCappedCtx(ctx context.Context, t *rtree.Tree, w vec.Weight, fq float64, bound int) (int, bool, error) {
	if bound <= 0 {
		return 0, true, ctx.Err()
	}
	tick := ctxcheck.Every(ctx, checkInterval)
	cnt, err := CountBelowCapped(t, w, fq, bound, &tick)
	return cnt, cnt >= bound, err
}

// CountBelowCapped is CountBelowCappedCtx's descent under a ticker the
// caller owns, ticked once per node visited, the root included: the count
// is exact when below bound, and at least bound otherwise.
// A loop of many short descents — reverse top-k membership, one per
// weighting vector — shares one ticker across them, so ctx is polled on
// the loop's interval as well as inside a long descent; a fresh ticker per
// call would never reach its interval. It panics if w and t differ in
// dimensionality, as vec.Score does.
func CountBelowCapped(t *rtree.Tree, w vec.Weight, fq float64, bound int, tick *ctxcheck.Ticker) (int, error) {
	if len(w) != t.Dim() {
		panic("topk: count descent weight and tree dimensionality differ")
	}
	return countBelowCapped(t.Root(), w, fq, bound, tick)
}

// countBelowCapped pays one MinScore per entry and a MaxScore only for the
// entries MinScore could not reject (most rectangles of a band tree lie
// wholly above fq, and at d = 13 each bound is a 13-term dot product).
//
// Lower corners and leaf points are scored four at a time by score4, whose
// four sums are independent chains of adds that overlap in the pipeline
// where one vec.Score is a single serial chain; each is bit-identical to
// vec.Score's. The four are then consumed in index order, with the bound
// checked after each, so the recursion, the ticks and the returned count
// are the one-at-a-time descent's: a group that meets the bound has only
// scored up to three entries too many.
//
//wqrtq:contract noalloc
func countBelowCapped(n *rtree.Node, w vec.Weight, fq float64, bound int, tick *ctxcheck.Ticker) (int, error) {
	if err := tick.Tick(); err != nil {
		return 0, err
	}
	cnt := 0
	ne := n.NumEntries()
	i := 0
	if n.IsLeaf() {
		//wqrtq:bounded leaf scan in groups of four, at most one node fanout of entries
		for ; i+4 <= ne; i += 4 {
			s0, s1, s2, s3 := score4(w, n.Point(i), n.Point(i+1), n.Point(i+2), n.Point(i+3))
			for _, s := range [4]float64{s0, s1, s2, s3} {
				if s < fq {
					cnt++
					if cnt >= bound {
						return cnt, nil
					}
				}
			}
		}
		//wqrtq:bounded leaf scan remainder, at most three entries
		for ; i < ne; i++ {
			if vec.Score(w, n.Point(i)) < fq {
				cnt++
				if cnt >= bound {
					return cnt, nil
				}
			}
		}
		return cnt, nil
	}
	//wqrtq:bounded lower corners in groups of four, at most one node fanout of entries
	for ; i+4 <= ne; i += 4 {
		s0, s1, s2, s3 := score4(w, n.EntryRect(i).Min, n.EntryRect(i+1).Min, n.EntryRect(i+2).Min, n.EntryRect(i+3).Min)
		for j, s := range [4]float64{s0, s1, s2, s3} {
			if s >= fq {
				continue
			}
			var err error
			if cnt, err = countEntry(n, i+j, w, fq, bound, cnt, tick); err != nil {
				return 0, err
			}
			if cnt >= bound {
				return cnt, nil
			}
		}
	}
	//wqrtq:bounded lower-corner remainder, at most three entries
	for ; i < ne; i++ {
		if n.EntryRect(i).MinScore(w) >= fq {
			continue
		}
		var err error
		if cnt, err = countEntry(n, i, w, fq, bound, cnt, tick); err != nil {
			return 0, err
		}
		if cnt >= bound {
			return cnt, nil
		}
	}
	return cnt, nil
}

// countEntry adds to cnt the beaters under entry i of the internal node n,
// whose lower corner scores below fq: all of the child's points when its
// upper corner does too, else what a capped descent into it finds.
//
//wqrtq:contract noalloc
func countEntry(n *rtree.Node, i int, w vec.Weight, fq float64, bound, cnt int, tick *ctxcheck.Ticker) (int, error) {
	if n.EntryRect(i).MaxScore(w) < fq {
		return cnt + n.Child(i).Count(), nil
	}
	sub, err := countBelowCapped(n.Child(i), w, fq, bound-cnt, tick)
	return cnt + sub, err
}

// score4 returns vec.Score(w, a), ..., vec.Score(w, d), each the same
// products added left to right from 0 in the same order, so each is
// bit-identical to vec.Score's. The one length guard lets every load in
// the loop share w's range-proved index.
//
//wqrtq:contract noescape(w,a,b,c,d) nobce noalloc
func score4(w vec.Weight, a, b, c, d vec.Point) (s0, s1, s2, s3 float64) {
	if len(a) < len(w) || len(b) < len(w) || len(c) < len(w) || len(d) < len(w) {
		panic("topk: point shorter than the weighting vector")
	}
	a, b, c, d = a[:len(w)], b[:len(w)], c[:len(w)], d[:len(w)]
	for i, wi := range w {
		s0 += wi * a[i]
		s1 += wi * b[i]
		s2 += wi * c[i]
		s3 += wi * d[i]
	}
	return s0, s1, s2, s3
}

// InTopK reports whether a query point with score f(w, q) belongs to the
// top-k of w per Definition 2/3: at most k-1 indexed points score strictly
// better.
func InTopK(t *rtree.Tree, w vec.Weight, q vec.Point, k int) bool {
	return Rank(t, w, vec.Score(w, q)) <= k
}

// ExplainCtx answers the first aspect of a why-not question (§3): it
// returns, in rank order, the points that score strictly better than q
// under w. Those are exactly the points "responsible for excluding the
// why-not weighting vector from the query result". The scan is progressive,
// stops as soon as q's score is reached, and cancels cooperatively via the
// iterator's heap-loop poll.
func ExplainCtx(ctx context.Context, t *rtree.Tree, w vec.Weight, q vec.Point) ([]Result, error) {
	fq := vec.Score(w, q)
	it := NewIteratorCtx(ctx, t, w)
	defer it.release()
	var out []Result
	for {
		r, ok := it.Next()
		if !ok {
			return out, it.Err()
		}
		if r.Score >= fq {
			return out, nil
		}
		out = append(out, r)
	}
}

// TopKNaive computes the top-k by scanning a point slice; baseline for
// tests and benchmarks. Ties are broken by insertion order.
func TopKNaive(points []vec.Point, w vec.Weight, k int) []Result {
	if k <= 0 {
		return nil
	}
	// Bounded insertion into a sorted slice of size k: O(n·k) worst case but
	// allocation-free and exact; datasets in tests are small.
	out := make([]Result, 0, k)
	for i, p := range points {
		s := vec.Score(w, p)
		if len(out) == k && s >= out[k-1].Score {
			continue
		}
		pos := len(out)
		for pos > 0 && out[pos-1].Score > s {
			pos--
		}
		if len(out) < k {
			out = append(out, Result{})
		}
		copy(out[pos+1:], out[pos:len(out)-1])
		out[pos] = Result{ID: int32(i), Point: p, Score: s}
	}
	return out
}

// RankNaive counts the rank of score fq by linear scan.
func RankNaive(points []vec.Point, w vec.Weight, fq float64) int {
	cnt := 0
	for _, p := range points {
		if vec.Score(w, p) < fq {
			cnt++
		}
	}
	return cnt + 1
}
