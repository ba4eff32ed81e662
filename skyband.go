package wqrtq

// The k-skyband sub-index (internal/skyband) bound to the Index: the
// reverse-top-k-shaped evaluations — the membership counts behind
// ReverseTopK, rank counting, MQP's top k-th searches, and the MWK/MQWK
// sampling loops — run against a k-skyband candidate set, built in the
// background on first use and cached for as long as mutations leave it
// unchanged, instead of the full dataset (until it lands, the full tree
// answers). Only points dominated by fewer than k
// others can appear in any top-k result, so results are bit-identical to
// the full-tree paths (the differential suite in skyband_test.go proves it
// end to end, reaching the full-tree oracle through the unexported skyOff
// field); the candidate set is typically orders of magnitude smaller
// than n, which is where the speedup comes from (see DESIGN.md §8).

import (
	"context"
	"sync"

	"wqrtq/internal/core"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/skyband"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// band returns the k-skyband of the current snapshot, waiting for its
// build, or nil when a test has switched the sub-index off (skyOff) to get
// the full-tree oracle. Only the exact monochromatic query, whose grid has
// no tier below it, waits on a band; the request path uses readyBand.
func (ix *Index) band(k int) *skyband.Band {
	if ix.skyOff || ix.sky == nil {
		return nil
	}
	return ix.sky.Band(k)
}

// readyBand returns the k-skyband of the current snapshot if it is built
// (a pass-through band where band would serve one), and nil under skyOff
// or while it builds in the background — the caller then answers from the
// full tree, which decides identically.
func (ix *Index) readyBand(k int) *skyband.Band {
	if ix.skyOff || ix.sky == nil {
		return nil
	}
	return ix.sky.TryBand(k)
}

// coreSource builds the acceleration hooks the refinement algorithms run
// through for parameter k, or nil — core's oracle path — under skyOff. The
// hooks are bit-compatible with the legacy scans (see core.Source). Neither
// waits on a build: KthPoint uses the k-band only when some reverse top-k
// has already built it, and Band a trim band once its background build
// has landed, so a why-not never asks for the k-band or its grid.
func (ix *Index) coreSource(k int) *core.Source {
	if ix.skyOff || ix.sky == nil {
		return nil
	}
	return &core.Source{
		Kernel: ix.kct,
		Routes: ix.rct,
		KthPoint: func(ctx context.Context, w vec.Weight, kk int) (topk.Result, bool, error) {
			if kk == k {
				if b := ix.sky.Peek(k); b != nil {
					return topk.KthPointCtx(ctx, b.Tree(), w, kk)
				}
			}
			return topk.KthPointCtx(ctx, ix.tree, w, kk)
		},
		Band: func(bound int) (core.BandImage, bool) {
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
				return core.BandImage{}, false
			}
			if fullBandTrim*bandK >= ix.tree.Len() {
				ct.CountTrimRefusal(skyband.TrimRefusedDataset)
				return core.BandImage{}, false
			}
			bb := ix.sky.TrimBand(bandK)
			if bb == nil {
				ct.CountTrimRefusal(skyband.TrimRefusedBand)
				return core.BandImage{}, false
			}
			return bandImage(bb), true
		},
	}
}

// bandImage is band b's image as the why-not trim reads it.
func bandImage(b *skyband.Band) core.BandImage {
	ids, counts := b.Members()
	return core.BandImage{Coords: b.Coords(), IDs: ids, Counts: counts}
}

// builds runs the background band and grid builds of one clone family
// (skyband.NewCounters' spawn) and lets Engine.Close stop them: after
// close no build starts, and close returns once the running ones have
// finished. A build is bounded work — one tree walk, or one grid — and
// takes no context, so close waits rather than cancels.
type builds struct {
	mu      sync.Mutex
	idle    sync.Cond // signalled when running drops to zero
	running int
	closed  bool
	// hold, when set, runs on each build's goroutine before the build:
	// the tests' way to hold a build in flight.
	hold func()
}

func newBuilds() *builds {
	b := &builds{}
	b.idle.L = &b.mu
	return b
}

// spawn runs fn on a goroutine of its own unless the family is closed.
func (b *builds) spawn(fn func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.running++
	hold := b.hold
	go func() {
		defer b.done()
		if hold != nil {
			hold()
		}
		fn()
	}()
	return true
}

func (b *builds) done() {
	b.mu.Lock()
	if b.running--; b.running == 0 {
		b.idle.Broadcast()
	}
	b.mu.Unlock()
}

// wait returns once no build is running.
func (b *builds) wait() {
	b.mu.Lock()
	for b.running > 0 {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// close refuses every later build and waits out the running ones.
func (b *builds) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wait()
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
