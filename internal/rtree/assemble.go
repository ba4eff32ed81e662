package rtree

import (
	"fmt"

	"wqrtq/internal/vec"
)

// Assembler rebuilds a Tree from its serialized node pages. It lives in
// package rtree — not internal/pagestore — because Tree and Node are
// snapshot-reachable types whose fields are writable only inside their
// builder package; the page decoder hands the assembler plain ids, points
// and rectangles and never touches a node.
//
// Usage: NewAssembler, then AddLeaf/AddInternal once per node index in any
// order, then Finish. Node indexes are the page numbers assigned by the
// serializer's depth-first walk; children are referenced by index. Finish
// links the structure, verifies it is a single tree (every non-root node
// referenced exactly once, all nodes reachable from the root), recomputes
// subtree counts bottom-up, and checks them against the declared size.
type Assembler struct {
	dim      int
	maxFill  int
	minFill  int
	nodes    []*Node
	children [][]int // child indexes per internal node, linked in Finish
	filled   []bool
	slab     []float64 // the unused rest of the chunk leaf blocks are cut from
}

// slabSize is how many coordinates one chunk of leaf blocks holds: blocks
// cut one after another from shared chunks lie in memory in the order the
// leaves are added, as Bulk's lie in one array.
const slabSize = 1 << 14

// NewAssembler prepares assembly of a tree with the given geometry and
// exactly nodeCount nodes.
func NewAssembler(dim, maxFill, minFill, nodeCount int) (*Assembler, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: assemble: dimension %d", dim)
	}
	if maxFill < 4 || minFill < 2 || minFill > maxFill/2 {
		return nil, fmt.Errorf("rtree: assemble: fill bounds %d/%d", minFill, maxFill)
	}
	if nodeCount <= 0 {
		return nil, fmt.Errorf("rtree: assemble: node count %d", nodeCount)
	}
	return &Assembler{
		dim:      dim,
		maxFill:  maxFill,
		minFill:  minFill,
		nodes:    make([]*Node, nodeCount),
		children: make([][]int, nodeCount),
		filled:   make([]bool, nodeCount),
	}, nil
}

func (a *Assembler) claim(idx, entries int) error {
	if idx < 0 || idx >= len(a.nodes) {
		return fmt.Errorf("rtree: assemble: node index %d out of range [0,%d)", idx, len(a.nodes))
	}
	if a.filled[idx] {
		return fmt.Errorf("rtree: assemble: node %d added twice", idx)
	}
	if entries > a.maxFill {
		return fmt.Errorf("rtree: assemble: node %d has %d entries, fanout %d", idx, entries, a.maxFill)
	}
	a.filled[idx] = true
	return nil
}

// AddLeaf installs leaf node idx holding the given record ids and their
// points. The points are copied, in entry order, into the leaf's block
// (Node.Rows); the input is not retained. Blocks are cut from chunks in
// the order the leaves are added, so a decoder that adds them in the
// tree's depth-first order gets Bulk's layout.
func (a *Assembler) AddLeaf(idx int, ids []int32, pts []vec.Point) error {
	if len(ids) != len(pts) {
		return fmt.Errorf("rtree: assemble: leaf %d: %d ids, %d points", idx, len(ids), len(pts))
	}
	if err := a.claim(idx, len(ids)); err != nil {
		return err
	}
	d, size := a.dim, len(ids)*a.dim
	if len(a.slab) < size {
		a.slab = make([]float64, max(size, slabSize))
	}
	n := &Node{leaf: true, count: len(ids), rows: a.slab[:size:size]}
	a.slab = a.slab[size:]
	n.entries = make([]entry, len(ids))
	for i := range ids {
		if len(pts[i]) != d {
			return fmt.Errorf("rtree: assemble: leaf %d entry %d: dimension %d, want %d", idx, i, len(pts[i]), d)
		}
		p := n.rows[i*d : (i+1)*d : (i+1)*d]
		copy(p, pts[i])
		n.entries[i] = entry{rect: PointRect(p), id: ids[i]}
	}
	a.nodes[idx] = n
	return nil
}

// AddInternal installs internal node idx whose i-th entry has bounding
// rectangle rects[i] and child node index children[i]. The rectangles'
// slices are retained and must be freshly allocated by the caller.
func (a *Assembler) AddInternal(idx int, rects []Rect, children []int) error {
	if len(rects) != len(children) {
		return fmt.Errorf("rtree: assemble: internal %d: %d rects, %d children", idx, len(rects), len(children))
	}
	if len(rects) == 0 {
		return fmt.Errorf("rtree: assemble: internal %d has no entries", idx)
	}
	if err := a.claim(idx, len(rects)); err != nil {
		return err
	}
	n := &Node{leaf: false}
	n.entries = make([]entry, len(rects))
	for i, r := range rects {
		if len(r.Min) != a.dim || len(r.Max) != a.dim {
			return fmt.Errorf("rtree: assemble: internal %d entry %d: rect dimension %d/%d, want %d",
				idx, i, len(r.Min), len(r.Max), a.dim)
		}
		n.entries[i] = entry{rect: r}
	}
	a.nodes[idx] = n
	a.children[idx] = children
	return nil
}

// Finish links children, verifies the node graph is a single rooted tree,
// recomputes subtree counts, and returns the assembled Tree at epoch zero.
// size is the expected number of live data points.
func (a *Assembler) Finish(root, size int) (*Tree, error) {
	for i, ok := range a.filled {
		if !ok {
			return nil, fmt.Errorf("rtree: assemble: node %d missing", i)
		}
	}
	if root < 0 || root >= len(a.nodes) {
		return nil, fmt.Errorf("rtree: assemble: root index %d out of range", root)
	}
	refs := make([]int, len(a.nodes))
	for idx, kids := range a.children {
		for i, c := range kids {
			if c < 0 || c >= len(a.nodes) {
				return nil, fmt.Errorf("rtree: assemble: node %d child %d out of range", idx, c)
			}
			refs[c]++
			a.nodes[idx].entries[i].child = a.nodes[c]
		}
	}
	if refs[root] != 0 {
		return nil, fmt.Errorf("rtree: assemble: root %d is referenced as a child", root)
	}
	for i, r := range refs {
		if i != root && r != 1 {
			return nil, fmt.Errorf("rtree: assemble: node %d referenced %d times", i, r)
		}
	}
	// Each non-root node has exactly one parent and the root has none, so
	// reaching every node from the root proves the graph is one acyclic
	// tree. The iterative walk doubles as the bottom-up count pass.
	if got := a.link(root); got != len(a.nodes) {
		return nil, fmt.Errorf("rtree: assemble: %d of %d nodes reachable from root", got, len(a.nodes))
	}
	if a.nodes[root].count != size {
		return nil, fmt.Errorf("rtree: assemble: tree holds %d points, header declares %d", a.nodes[root].count, size)
	}
	return &Tree{
		dim:       a.dim,
		maxFill:   a.maxFill,
		minFill:   a.minFill,
		root:      a.nodes[root],
		size:      size,
		nodeCount: len(a.nodes),
	}, nil
}

// link walks the subtree at idx, filling internal counts bottom-up, and
// returns the number of nodes visited.
func (a *Assembler) link(idx int) int {
	n := a.nodes[idx]
	if n.leaf {
		return 1
	}
	visited := 1
	n.count = 0
	for _, c := range a.children[idx] {
		visited += a.link(c)
		n.count += a.nodes[c].count
	}
	return visited
}
