package rtree

import "sync/atomic"

// Copy-on-write snapshot support.
//
// A tree can be cloned in O(1): the clone shares every node with its source.
// Each node carries the epoch of the tree that created (and may mutate) it;
// Clone moves both trees to fresh epochs drawn from a counter shared by the
// whole clone family, so every shared node becomes foreign to both. A
// mutation then copies any foreign node along its path before touching it
// (path copying), leaving all other trees of the family intact. This makes
// the structure persistent: after a clone, either side may keep mutating
// without affecting the other.
//
// Synchronization contract: Clone and mutations (Insert, Delete) of trees in
// the same family must be externally serialized with each other; read-only
// traversals of a tree are safe concurrently with Clone of that tree and
// with mutations of *other* trees in the family, which is exactly the
// publish-a-snapshot pattern the serving engine uses.

// Epoch returns the tree's mutation epoch. It is bumped by Clone (on both
// the receiver and the clone) and is safe to read concurrently.
func (t *Tree) Epoch() uint64 { return atomic.LoadUint64(&t.epoch) }

// Clone returns a copy-on-write snapshot sharing all nodes with t. The cost
// is O(1); the first mutation of either tree pays for copying the nodes on
// its mutation path. See the synchronization contract above.
func (t *Tree) Clone() *Tree {
	if t.family == nil {
		f := t.epoch
		t.family = &f
	}
	c := &Tree{
		dim:       t.dim,
		maxFill:   t.maxFill,
		minFill:   t.minFill,
		root:      t.root,
		size:      t.size,
		nodeCount: t.nodeCount,
		family:    t.family,
	}
	// The receiver takes the lower fresh epoch and the clone the higher
	// one, so when a serving engine publishes the clone as its next
	// snapshot, observable epochs are monotonic: the new snapshot's epoch
	// exceeds every epoch the superseded snapshot ever exposed.
	*t.family++
	atomic.StoreUint64(&t.epoch, *t.family)
	*t.family++
	c.epoch = *t.family
	return c
}

// own returns a node the current epoch may mutate, copying it when it is
// shared with another tree of the clone family. Internal entry rectangles
// are deep-copied, into one block per node, because chooseLeaf extends
// them in place; a leaf's copy
// shares the leaf's block, which is never written: the mutation that
// follows gives the copy a fresh one (reblock).
func (t *Tree) own(n *Node) *Node {
	if n.epoch == t.epoch {
		return n
	}
	cp := &Node{leaf: n.leaf, rows: n.rows, count: n.count, epoch: t.epoch}
	cp.entries = make([]entry, len(n.entries))
	copy(cp.entries, n.entries)
	if !n.leaf {
		d := t.dim
		buf := make([]float64, 2*d*len(cp.entries))
		for i := range cp.entries {
			r := &cp.entries[i].rect
			mn, mx := buf[:d:d], buf[d:2*d:2*d]
			buf = buf[2*d:]
			copy(mn, r.Min)
			copy(mx, r.Max)
			r.Min, r.Max = mn, mx
		}
	}
	return cp
}
