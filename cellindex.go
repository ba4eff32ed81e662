package wqrtq

// The materialized reverse-top-k cell index (internal/cellindex) bound to
// the Index: eligible bichromatic reverse top-k evaluations — ReverseTopK
// itself and the membership stage of the fused why-not pipeline — answer each
// weighting vector from a point-located grid cell's precomputed candidate
// superset instead of sweeping the whole k-skyband, and monochromatic
// reverse top-k gets an exact algorithm at d = 3 and 4 (ReverseTopKMonoND).
// Results are bit-identical to the per-vector count descent over the band
// tree a declining grid falls back to, which tests reach directly through
// the unexported cellOff field (the differential suite in cellindex_test.go
// proves it end to end; see DESIGN.md §10 for the construction and the
// count-preservation argument). The index rides on the skyband bands —
// grids are built over them, so their lazy builds and cache hits tick the
// skyband counters — and reports its scan work through the kernel
// counters; under skyOff there is no grid either.

import (
	"wqrtq/internal/cellindex"
	"wqrtq/internal/rtopk"
)

// cellGrid returns the cell grid for parameter k, or nil when a test has
// switched off either of the stacked sub-indexes or the configuration is
// ineligible (cell budget, basis size, cache pressure) — callers then use
// the count descent, which answers identically.
func (ix *Index) cellGrid(k int) *cellindex.Grid {
	if ix.cellOff || ix.skyOff || ix.cells == nil {
		return nil
	}
	return ix.cells.Grid(k)
}

// MonoCell is one cell of a d >= 3 monochromatic reverse top-k answer:
// Lo and Hi bound the weighting vectors it covers per coordinate, Full
// marks cells proven to lie entirely inside the result, and MidIn reports
// the verified decision at the cell midpoint (always true for full
// cells).
type MonoCell struct {
	Lo, Hi []float64
	Full   bool
	MidIn  bool
}

// ReverseTopKMonoND answers the monochromatic reverse top-k query exactly.
// For 2-D data it is ReverseTopKMono2D: the maximal λ-intervals (cells is
// nil). For 3-D and 4-D it answers through the materialized cell index and
// returns the result region as grid cells (intervals is nil): every
// weighting vector whose top-k contains q lies in a returned cell, full
// cells are entirely inside the result, and partial cells carry a verified
// midpoint decision. Beyond 2-D there is no exact fallback, so a declined
// grid is an error.
func (ix *Index) ReverseTopKMonoND(q []float64, k int) ([]Interval, []MonoCell, error) {
	if ix.Dim() == 2 {
		ivs, err := ix.ReverseTopKMono2D(q, k)
		return ivs, nil, err
	}
	if err := ix.checkPoint(q); err != nil {
		return nil, nil, err
	}
	if k <= 0 {
		return nil, nil, errPositiveK
	}
	g := ix.cellGrid(k)
	if g == nil {
		return nil, nil, invalidArgf("exact monochromatic reverse top-k beyond 2-D requires the cell index (%d-D data, cell index eligible: %t)", ix.Dim(), !ix.cellOff && !ix.skyOff)
	}
	cells := rtopk.MonochromaticND(g, q, k)
	out := make([]MonoCell, len(cells))
	for i, c := range cells {
		out[i] = MonoCell{Lo: c.Lo, Hi: c.Hi, Full: c.Full, MidIn: c.MidIn}
	}
	return nil, out, nil
}

// CellIndexStats is a point-in-time view of the materialized cell index.
type CellIndexStats struct {
	// Grids, Cells and Candidates describe the grids the current snapshot
	// holds (built on it or carried over with their basis band): how many
	// there are, their total built cells, and the total candidate rows
	// those cells store.
	Grids      int `json:"grids"`
	Cells      int `json:"cells"`
	Candidates int `json:"candidates"`
	// Builds and Hits count grid constructions and grid-cache hits over
	// the index's whole lifetime (cumulative across snapshots). Lookups
	// counts weighting vectors answered by cell lookups; Fallbacks counts
	// queries that reached the cell path but fell back to a legacy
	// algorithm (ineligible configuration or a failed point location).
	Builds    int64 `json:"builds"`
	Hits      int64 `json:"hits"`
	Fallbacks int64 `json:"fallbacks"`
	Lookups   int64 `json:"lookups"`
	// Carried and Dropped count, per mutation and finished grid entry, the
	// entries that followed their basis band into the next snapshot and
	// the ones dropped with it (each costs one later build).
	Carried int64 `json:"carried"`
	Dropped int64 `json:"dropped"`
}

// CellIndexStats reports the sub-index's cache contents and cumulative
// counters.
func (ix *Index) CellIndexStats() CellIndexStats {
	var s CellIndexStats
	if ix.cells == nil {
		return s
	}
	cs := ix.cells.Stats()
	s.Grids, s.Cells, s.Candidates = cs.Grids, cs.Cells, cs.Candidates
	ct := ix.cct.Snapshot()
	s.Builds, s.Hits, s.Fallbacks, s.Lookups = ct.Builds, ct.Hits, ct.Fallbacks, ct.Lookups
	s.Carried, s.Dropped = ct.Carried, ct.Dropped
	return s
}
