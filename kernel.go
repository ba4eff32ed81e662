package wqrtq

// The blocked SoA scoring kernel (internal/kernel) bound to the Index:
// every "many weights × one candidate set" evaluation — the per-sample
// rank counting of the MWK/MQWK refinement loops and the reverse top-k
// membership tests over a k-skyband — runs as cache-friendly blocked
// sweeps over column-major flattened coordinates instead of one scalar
// scan (or one branch-and-bound top-k) per weighting vector. Results are
// bit-identical to the scalar path, which is the product path at d > 4 and
// which tests reach at any d through the unexported kernelOff field: every
// score is the same multiply/add chain as vec.Score, only evaluated
// block-at-a-time (the kernel differential suite in kernel_test.go proves
// it end to end; see DESIGN.md §9 for the cost model). The kernel rides on
// the skyband candidate sets: under skyOff there is nothing to flatten.

import (
	"wqrtq/internal/core"
	"wqrtq/internal/kernel"
)

// kernelCounters returns the cumulative kernel counters of the clone
// family, or nil under kernelOff (the nil propagates into
// core.Source.Kernel as the scalar-path switch).
func (ix *Index) kernelCounters() *kernel.Counters {
	if ix.kernelOff {
		return nil
	}
	return ix.kct
}

// KernelStats is a point-in-time view of the blocked scoring kernel.
type KernelStats struct {
	// Blocks counts blocked sweeps over a flattened candidate set;
	// Weights the weighting vectors they evaluated; Points the candidate
	// points per sweep, summed. Weights/Blocks is the achieved blocking
	// factor — how many scans each memory pass amortized. All counters
	// are cumulative across snapshots of the clone family.
	Blocks  int64 `json:"blocks"`
	Weights int64 `json:"weights"`
	Points  int64 `json:"points"`
	// Refine says which route ranked the samples of the refinement loops
	// (MWK/MQWK): how many call-fixed candidate universes were prepared,
	// how far the band trim cut them, how many sample loops swept the
	// trimmed universe, the whole one, or fell to scalar scans (kernel
	// off, or d > 4), and how many drawn samples survived their capped
	// count. Cumulative like the counters above.
	Refine core.RouteSnapshot `json:"refine"`
}

// KernelStats reports the kernel's cumulative counters.
func (ix *Index) KernelStats() KernelStats {
	var s KernelStats
	cs := ix.kct.Snapshot()
	s.Blocks, s.Weights, s.Points = cs.Blocks, cs.Weights, cs.Points
	s.Refine = ix.rct.Snapshot()
	return s
}
