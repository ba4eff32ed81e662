// Package snapuser exercises snapshotmut outside the builder package.
package snapuser

import (
	"rtree"
	"skyband"
)

// Flagged covers the write shapes: direct field store, element store
// through a method result, append through an alias, builtin growth.
func Flagged(t *rtree.Tree, n *rtree.Node) {
	n.Scores[0] = 1                           // want `writes through snapshot-reachable state`
	t.Root().Scores[1] = 2                    // want `writes through snapshot-reachable state`
	t.Root().Children[0] = nil                // want `writes through snapshot-reachable state`
	n.Scores = append(n.Scores, 3)            // want `writes through snapshot-reachable state` `appends into snapshot-reachable state`
	copy(t.Root().Scores, []float64{1})       // want `copies into snapshot-reachable state`
	alias := n.Scores                         // taints alias
	alias[2] = 4                              // want `writes through snapshot-reachable state`
	kids := t.Root().Children                 // taints kids
	kids[0] = &rtree.Node{}                   // want `writes through snapshot-reachable state`
	scoreCopy := n.Scores[0]                  // value copy: no taint
	scoreCopy++                               // fine
	local := []float64{scoreCopy}             // fresh storage
	local = append(local, t.Root().Scores...) // reading is fine
	_ = local
}

// Allowlisted writes are silenced by a rationale-bearing directive.
func Allowlisted(n *rtree.Node) {
	//wqrtq:mutates fixture: private clone, never published
	n.Scores[0] = 9
	n.Scores[1] = 9 //wqrtq:mutates fixture: same clone, end-of-line form
}

// BareDirective is an allowlist without a rationale: itself an error.
func BareDirective(n *rtree.Node) {
	//wqrtq:mutates
	n.Scores[0] = 9 // want `//wqrtq:mutates requires a rationale`
}

// ReadsOnly stays out of the gate: reads, value copies and calls are not
// writes.
func ReadsOnly(t *rtree.Tree) float64 {
	sum := 0.0
	for _, s := range t.Root().Scores {
		sum += s
	}
	t.Grow(sum) // builder-package method: the mutating-method hole, by design
	return sum
}

// ClampImage is the audit's plant in the root package's bandImage
// (DESIGN.md §11): it clamps a published band's coordinate columns in
// place. The test suite, race hammer included, passes with it.
func ClampImage(b *skyband.Band) {
	c := b.Coords()
	for j := range c.Dim() {
		col := c.Col(j)
		for i, v := range col {
			col[i] = min(max(v, 0), 1) // want `writes through snapshot-reachable state`
		}
	}
}

// CountSelf is the audit's other missed plant in bandImage: it bumps a
// published band's dominance counts in place, through the second result
// of a multi-value method. The test suite passes with it.
func CountSelf(b *skyband.Band) {
	ids, counts := b.Members()
	_ = ids
	for i := range counts {
		counts[i]++ // want `increments snapshot-reachable state`
	}
}
