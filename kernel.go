package wqrtq

// The SoA scoring kernel (internal/kernel) bound to the Index: the "many
// weights × one candidate set" evaluations — the per-sample rank counting
// of the MWK/MQWK refinement loops, and the cell-local counts of the
// reverse top-k grid, which report their scan work through the same
// counters — run as capped counts and score passes over column-major
// flattened coordinates. Every score is the same multiply/add chain as
// vec.Score, so results are bit-identical to the references: for the
// refinement loops, which count at every d, core's nil-Source oracle,
// reached through skyOff (see DESIGN.md §9 for the cost model). The kernel
// rides on the skyband candidate sets: under skyOff there is nothing to
// flatten. Reverse top-k below the grid does not sweep: membership there is
// one capped count descent per vector (rtopk.BichromaticCountCtx).

import (
	"wqrtq/internal/core"
	"wqrtq/internal/kernel"
)

// KernelStats is a point-in-time view of the scoring kernel. The
// embedded counters are cumulative across snapshots of the clone family;
// Weights/Blocks is the mean number of weights per recorded batch, each
// weight one count or score pass of its own.
type KernelStats struct {
	kernel.CountersSnapshot
	// Refine says how the refinement loops (MWK/MQWK) ranked their
	// samples: how many call-fixed candidate universes were prepared, how
	// far the band trim cut them, how many sample loops swept the trimmed
	// universe and how many the whole one, and how many drawn samples
	// survived their capped count. Cumulative like the counters above.
	Refine core.RouteSnapshot `json:"refine"`
}

// KernelStats reports the kernel's cumulative counters.
func (ix *Index) KernelStats() KernelStats {
	return KernelStats{CountersSnapshot: ix.kct.Snapshot(), Refine: ix.rct.Snapshot()}
}
