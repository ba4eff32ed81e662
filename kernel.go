package wqrtq

// The blocked SoA scoring kernel (internal/kernel) bound to the Index:
// the "many weights × one candidate set" evaluations — the per-sample rank
// counting of the MWK/MQWK refinement loops, and the cell-local counts of
// the reverse top-k grid, which report their scan work through the same
// counters — run as cache-friendly blocked sweeps over column-major
// flattened coordinates instead of one scalar scan per weighting vector.
// Every score is the same multiply/add chain as vec.Score, only evaluated
// block-at-a-time, so results are bit-identical to the references: for the
// refinement loops, which sweep at every d, core's nil-Source oracle,
// reached through skyOff (see DESIGN.md §9 for the cost model). The kernel
// rides on the skyband candidate sets: under skyOff there is nothing to
// flatten. Reverse top-k below the grid does not sweep: membership there is
// one capped count descent per vector (rtopk.BichromaticCountCtx).

import (
	"wqrtq/internal/core"
)

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
	// Refine says how the refinement loops (MWK/MQWK) ranked their
	// samples: how many call-fixed candidate universes were prepared, how
	// far the band trim cut them, how many sample loops swept the trimmed
	// universe and how many the whole one, and how many drawn samples
	// survived their capped count. Cumulative like the counters above.
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
