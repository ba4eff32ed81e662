package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"wqrtq/internal/vec"
)

// oracleBulk is STR in its plainest form: entries sorted in place by
// pdqsort on their centres at each axis, and every level's rectangles
// computed by coverRect. Bulk must build the same tree, bit for bit.
func oracleBulk(points []vec.Point, ids []int32, opts ...Options) *Tree {
	t := New(len(points[0]), opts...)
	t.nodeCount = 0
	entries := make([]entry, len(points))
	for i, p := range points {
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		entries[i] = entry{rect: PointRect(p), id: id}
	}
	level := t.oracleSTR(entries, 0, true)
	for len(level) > 1 {
		up := make([]entry, len(level))
		for i, n := range level {
			up[i] = entry{rect: nodeRect(n), child: n}
		}
		level = t.oracleSTR(up, 0, false)
	}
	t.root = level[0]
	t.size = len(points)
	coords := make([]float64, len(points)*t.dim)
	t.root.relocate(&coords, t.dim)
	return t
}

func (t *Tree) oracleSTR(entries []entry, axis int, leaf bool) []*Node {
	node := func(es []entry) *Node {
		n := t.newNode(leaf)
		n.entries = append(n.entries, es...)
		for _, e := range n.entries {
			n.count += entryCount(e)
		}
		return n
	}
	if len(entries) <= t.maxFill {
		return []*Node{node(entries)}
	}
	nodesNeeded := int(math.Ceil(float64(len(entries)) / float64(t.maxFill)))
	sortEntriesByCenter(entries, axis)
	if axis >= t.dim-1 {
		var out []*Node
		for start := 0; start < len(entries); start += t.maxFill {
			out = append(out, node(entries[start:min(start+t.maxFill, len(entries))]))
		}
		return out
	}
	slabs := max(int(math.Ceil(math.Pow(float64(nodesNeeded), 1/float64(t.dim-axis)))), 1)
	per := int(math.Ceil(float64(len(entries)) / float64(slabs)))
	var out []*Node
	for start := 0; start < len(entries); start += per {
		out = append(out, t.oracleSTR(entries[start:min(start+per, len(entries))], axis+1, leaf)...)
	}
	return out
}

func sortEntriesByCenter(es []entry, axis int) {
	slices.SortFunc(es, func(a, b entry) int {
		return cmp.Compare(a.rect.Min[axis]+a.rect.Max[axis], b.rect.Min[axis]+b.rect.Max[axis])
	})
}

// sameTree reports the first difference between two trees: their
// parameters, then node by node in depth-first order the leaf flag, count,
// every entry's id and rectangle bits, and every leaf's Rows() bits.
func sameTree(a, b *Tree) error {
	if a.dim != b.dim || a.maxFill != b.maxFill || a.size != b.size || a.nodeCount != b.nodeCount {
		return fmt.Errorf("trees differ: dim %d/%d, fanout %d/%d, size %d/%d, nodes %d/%d",
			a.dim, b.dim, a.maxFill, b.maxFill, a.size, b.size, a.nodeCount, b.nodeCount)
	}
	return sameNode(a.root, b.root, "root")
}

func sameNode(a, b *Node, at string) error {
	if a.leaf != b.leaf || a.count != b.count || len(a.entries) != len(b.entries) {
		return fmt.Errorf("%s: leaf %v/%v, count %d/%d, entries %d/%d", at, a.leaf, b.leaf, a.count, b.count, len(a.entries), len(b.entries))
	}
	if !sameBits(a.rows, b.rows) {
		return fmt.Errorf("%s: Rows differ", at)
	}
	for i := range a.entries {
		ea, eb := a.entries[i], b.entries[i]
		if ea.id != eb.id || !sameBits(ea.rect.Min, eb.rect.Min) || !sameBits(ea.rect.Max, eb.rect.Max) {
			return fmt.Errorf("%s entry %d: id %d/%d, rect %v/%v", at, i, ea.id, eb.id, ea.rect, eb.rect)
		}
		if !a.leaf {
			if err := sameNode(ea.child, eb.child, fmt.Sprintf("%s/%d", at, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// bulkInput draws n points of dimension d in one of several shapes: tie-free
// uniform, a small integer grid, copies of a few points, a grid of signed
// zeros and ones, and values with NaN, ±Inf, negatives and numbers whose
// doubling overflows.
func bulkInput(rng *rand.Rand, shape, n, d int) []vec.Point {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.5, math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1)}
	pts := make([]vec.Point, n)
	for i := range pts {
		if shape == 2 && i > 0 && rng.Intn(4) > 0 {
			pts[i] = vec.Clone(pts[rng.Intn(i)])
			continue
		}
		p := make(vec.Point, d)
		for j := range p {
			switch shape {
			case 1:
				p[j] = float64(rng.Intn(4))
			case 3:
				p[j] = []float64{0, math.Copysign(0, -1), 1}[rng.Intn(3)]
			case 4:
				if rng.Intn(3) == 0 {
					p[j] = special[rng.Intn(len(special))]
				} else {
					p[j] = rng.Float64()
				}
			default:
				p[j] = rng.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

// FuzzBulk holds Bulk's permutation sort to the entry-sorting oracle, node
// for node, over duplicates, signed zeros, integer grids and non-finite
// values, fanouts 4 to 72, d in [2, 16], with and without ids.
func FuzzBulk(f *testing.F) {
	f.Add(int64(1), uint16(5000), uint8(3), uint8(72), uint8(0), false)
	f.Add(int64(2), uint16(3000), uint8(2), uint8(4), uint8(1), true)
	f.Add(int64(3), uint16(4000), uint8(13), uint8(16), uint8(2), false)
	f.Add(int64(4), uint16(2000), uint8(6), uint8(9), uint8(3), true)
	f.Add(int64(5), uint16(1500), uint8(16), uint8(5), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, d, fanout, shape uint8, withIDs bool) {
		rng := rand.New(rand.NewSource(seed))
		size, dim := 1+int(n)%6000, 2+int(d)%15
		pts := bulkInput(rng, int(shape)%5, size, dim)
		var ids []int32
		if withIDs {
			ids = make([]int32, size)
			for i := range ids {
				ids[i] = rng.Int31()
			}
		}
		opts := Options{PageSize: PageSizeFor(dim, 4+int(fanout)%69)}
		if err := sameTree(Bulk(pts, ids, opts), oracleBulk(pts, ids, opts)); err != nil {
			t.Fatalf("n=%d d=%d fanout=%d shape=%d ids=%v: %v", size, dim, 4+int(fanout)%69, shape%5, withIDs, err)
		}
	})
}

func TestSortKeyOrdersAsCompare(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 0.5, 1, math.MaxFloat64, math.Inf(1), -math.NaN()}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := cmp.Compare(sortKey(a), sortKey(b)), cmp.Compare(a, b); got != want {
				t.Errorf("sortKey order of %v, %v is %d, cmp.Compare %d", a, b, got, want)
			}
		}
	}
}
