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
// each grid is built over its band and lives on it, so band reads tick the
// skyband counters — and reports its scan work through the kernel
// counters; under skyOff there is no grid either.

import (
	"wqrtq/internal/cellindex"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/skyband"
)

// cellGrid returns the cell grid of band b (ix.band's answer, nil under
// skyOff), or nil when a test has switched the cell index off or b has no
// grid (cell budget, pass-through band, basis size) — callers then use the
// count descent, which answers identically.
func (ix *Index) cellGrid(b *skyband.Band) *cellindex.Grid {
	if ix.cellOff || b == nil {
		return nil
	}
	return cellindex.Of(b, ix.cct)
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
// midpoint decision. Beyond 2-D there is no exact fallback: where k is
// served pass-through the grid is built over the whole dataset, uncached,
// and a declined grid is an error.
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
	var g *cellindex.Grid
	if b := ix.band(k); b != nil && b.Full() {
		// A pass-through band carries no grid: build one over the whole
		// dataset, uncached, when it is small enough to be a basis.
		if !ix.cellOff && b.Size() <= cellindex.MaxBasis {
			g = cellindex.Build(b.Coords(), k)
		}
	} else {
		g = ix.cellGrid(b)
	}
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
type CellIndexStats = cellindex.Stats

// CellIndexStats reports the grids the snapshot's bands hold and the
// cumulative counters.
func (ix *Index) CellIndexStats() CellIndexStats { return ix.cct.Stats(ix.sky) }
