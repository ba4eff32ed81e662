package wqrtq

// The k-skyband sub-index (internal/skyband) bound to the Index: every
// reverse-top-k-shaped evaluation — the membership counts behind ReverseTopK
// and WhyNot, rank counting, MQP's top k-th searches, and the MWK/MQWK sampling
// loops — runs against a lazily computed k-skyband candidate set, cached
// for as long as mutations leave it unchanged, instead of the full dataset. Only points dominated by fewer than k
// others can appear in any top-k result, so results are bit-identical to
// the full-tree paths (the differential suite in skyband_test.go proves it
// end to end, reaching the full-tree oracle through the unexported skyOff
// field); the candidate set is typically orders of magnitude smaller
// than n, which is where the speedup comes from (see DESIGN.md §8).

import (
	"context"

	"wqrtq/internal/core"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/skyband"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// band returns the k-skyband of the current snapshot, or nil when a test
// has switched the sub-index off (skyOff) to get the full-tree oracle.
func (ix *Index) band(k int) *skyband.Band {
	if ix.skyOff || ix.sky == nil {
		return nil
	}
	return ix.sky.Band(k)
}

// coreSource builds the acceleration hooks the refinement algorithms run
// through for parameter k, or nil — core's oracle path — under skyOff. The
// hooks are bit-compatible with the legacy scans (see core.Source). Every
// band resolves lazily inside its hook, so an algorithm that never calls a
// hook (MWK never needs KthPoint) never pays a band construction, and none
// is built before core's own input guard has passed.
func (ix *Index) coreSource(k int) *core.Source {
	if ix.skyOff || ix.sky == nil {
		return nil
	}
	return &core.Source{
		Kernel: ix.kct,
		Routes: ix.rct,
		KthPoint: func(ctx context.Context, w vec.Weight, kk int) (topk.Result, bool, error) {
			if kk == k {
				if b := ix.band(k); b != nil && !b.Full() {
					return topk.KthPointCtx(ctx, b.Tree(), w, kk)
				}
			}
			return topk.KthPointCtx(ctx, ix.tree, w, kk)
		},
		BandCounts: func(bound int) []int32 {
			// Round the band parameter up to a power of two so the
			// per-request k'max values (which vary query to query) map
			// onto a handful of cached bands per snapshot. What bounds the
			// cost of a trim band is its size, which TrimBand limits
			// itself; the cap on k only keeps requests from probing
			// parameters whose bands outgrow that limit on any data.
			bandK := 16
			for bandK < bound {
				bandK <<= 1
			}
			ct := ix.sky.Counters()
			if bandK > maxTrimBand {
				ct.CountTrimRefusal(skyband.TrimRefusedK)
				return nil
			}
			if fullBandTrim*bandK >= ix.tree.Len() {
				ct.CountTrimRefusal(skyband.TrimRefusedDataset)
				return nil
			}
			bb := ix.sky.TrimBand(bandK)
			if bb == nil {
				ct.CountTrimRefusal(skyband.TrimRefusedBand)
				return nil
			}
			return bb.Counts()
		},
	}
}

// maxTrimBand caps the band parameter of sample-loop trims. 128 covers the
// paper's default question (Table 1: actual rank 101); on uniform data at
// n = 100k, d = 3 that band holds 4% of the points and builds in about
// 60 ms, once per snapshot lineage.
const maxTrimBand = 128

// fullBandTrim rejects sample-loop trim bands whose k is large relative to
// the dataset (the band would cover most of it).
const fullBandTrim = 64

// SkybandStats is a point-in-time view of the skyband sub-index.
type SkybandStats = skyband.Stats

// SkybandStats reports the bands the snapshot holds and the cumulative
// counters.
func (ix *Index) SkybandStats() SkybandStats { return ix.sky.Stats() }

// RTAStats reports the work of one reverse top-k evaluation (the name and
// the "rta" JSON block date from when RTA, the paper's [31], served it).
// Evaluated and Pruned partition the weighting vectors. When the cell grid
// answers, every vector is Evaluated (one cell-local count each). Below
// the grid each vector pays one capped count descent: Pruned counts the
// descents that stopped at the k-th point beating q — the non-members —
// and Evaluated the ones counted to completion, so Evaluated equals the
// size of the result. CandidateSetSize is how many indexed points each
// count ran against (the k-skyband size when the sub-index served the
// query, the full dataset size otherwise).
type RTAStats struct {
	Evaluated        int `json:"evaluated"`
	Pruned           int `json:"pruned"`
	CandidateSetSize int `json:"candidate_set_size"`
}

// toRTAStats converts the internal evaluation statistics to the public
// response form.
func toRTAStats(s rtopk.Stats) RTAStats {
	return RTAStats{Evaluated: s.Evaluated, Pruned: s.Pruned, CandidateSetSize: s.CandidateSetSize}
}
