package rtree

import "fmt"

// CheckInvariants verifies the structural invariants of the tree and returns
// the first violation found. It is exported for use by tests (including
// property-based tests in dependent packages).
//
// Checked invariants:
//   - every internal entry rectangle contains all rectangles beneath it;
//   - all leaves are at the same depth;
//   - every non-root node holds between MinEntries and MaxEntries entries
//     (bulk-loaded trees may have one trailing underfull node per level, so
//     only the upper bound is enforced strictly);
//   - per-node point counts are consistent;
//   - every leaf's entries alias its block (Rows) in order: entry i's
//     point is the block's i-th row, and the block holds nothing else;
//   - Len() equals the number of stored points.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		return fmt.Errorf("rtree: nil root")
	}
	leafDepth := -1
	total, err := t.checkNode(t.root, 0, &leafDepth, true)
	if err != nil {
		return err
	}
	if total != t.size {
		return fmt.Errorf("rtree: Len() = %d but %d points reachable", t.size, total)
	}
	return nil
}

func (t *Tree) checkNode(n *Node, depth int, leafDepth *int, isRoot bool) (int, error) {
	if len(n.entries) > t.maxFill {
		return 0, fmt.Errorf("rtree: node with %d entries exceeds fanout %d", len(n.entries), t.maxFill)
	}
	if !isRoot && len(n.entries) == 0 {
		return 0, fmt.Errorf("rtree: empty non-root node")
	}
	if n.leaf {
		if *leafDepth == -1 {
			*leafDepth = depth
		} else if *leafDepth != depth {
			return 0, fmt.Errorf("rtree: leaves at depths %d and %d", *leafDepth, depth)
		}
		if n.count != len(n.entries) {
			return 0, fmt.Errorf("rtree: leaf count %d != entries %d", n.count, len(n.entries))
		}
		if err := t.checkRows(n); err != nil {
			return 0, err
		}
		return len(n.entries), nil
	}
	total := 0
	for i := range n.entries {
		e := n.entries[i]
		if e.child == nil {
			return 0, fmt.Errorf("rtree: internal entry without child")
		}
		childRect := nodeRect(e.child)
		if !e.rect.Contains(childRect) {
			return 0, fmt.Errorf("rtree: entry MBR %v does not contain child cover %v", e.rect, childRect)
		}
		sub, err := t.checkNode(e.child, depth+1, leafDepth, false)
		if err != nil {
			return 0, err
		}
		if sub != e.child.count {
			return 0, fmt.Errorf("rtree: child count %d != reachable %d", e.child.count, sub)
		}
		total += sub
	}
	if total != n.count {
		return 0, fmt.Errorf("rtree: node count %d != reachable %d", n.count, total)
	}
	return total, nil
}

// checkRows verifies that leaf n's entries alias its block in order.
func (t *Tree) checkRows(n *Node) error {
	d := t.dim
	if len(n.rows) != len(n.entries)*d {
		return fmt.Errorf("rtree: leaf block holds %d coordinates for %d entries of dimension %d", len(n.rows), len(n.entries), d)
	}
	for i := range n.entries {
		r := n.entries[i].rect
		row := n.rows[i*d : (i+1)*d]
		if len(r.Min) != d || len(r.Max) != d || &r.Min[0] != &row[0] || &r.Max[0] != &row[0] {
			return fmt.Errorf("rtree: leaf entry %d (id %d) does not alias row %d of its block", i, n.entries[i].id, i)
		}
	}
	return nil
}
