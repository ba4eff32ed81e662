package main

// Layer replay: with no spans inside the program yet (ROADMAP item 2), the
// traced run times calls into each package's exported functions, in
// process, on the workload's own dataset and the head of its op list. One
// call is one sample; the median is reported. Where the workload has no op
// of a kind (no why-not instance in an rtopk workload), the same generator
// draws some from the "replay" stream, so every layer has a number on
// every dataset.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"wqrtq"
	"wqrtq/internal/admission"
	"wqrtq/internal/cellindex"
	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/kernel"
	"wqrtq/internal/mat"
	"wqrtq/internal/pagestore"
	"wqrtq/internal/qp"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
	"wqrtq/internal/storage"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
	"wqrtq/internal/wal"
)

const (
	replayQueries   = 200
	replayWhyNots   = 50
	replayMutations = 200
	replayBuilds    = 3 // cold builds timed per structure
	// replayBudget caps the time one layer's samples may take, so a slow
	// layer (full-tree RTA at d = 13) gives fewer samples, not a long run.
	replayBudget = 2 * time.Second
)

// timed calls fn(0), fn(1), … up to n times or until replayBudget is spent
// (at least three calls), and returns the median duration in nanoseconds.
func timed(ctx context.Context, n int, fn func(i int) error) (float64, error) {
	var ns []float64
	begin := time.Now()
	for i := 0; i < n && (i < 3 || time.Since(begin) < replayBudget); i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns), nil
}

// replayInputs picks the ops the replay runs: the head of client 0's list,
// topped up from the "replay" stream for the kinds the workload lacks.
func (p *plan) replayInputs() (queries []op, pool []weightSet, whynots []op, inserts []vec.Point, err error) {
	for _, o := range p.clients[0] {
		switch {
		case o.Kind == opRTopK && !o.Hot && len(queries) < replayQueries:
			queries = append(queries, o)
		case o.Kind == opWhyNot && len(whynots) < replayWhyNots:
			whynots = append(whynots, o)
		case o.Kind == opInsert && len(inserts) < replayMutations:
			inserts = append(inserts, o.Point)
		}
	}
	rng := stream(p.seed, "replay")
	// A stand-in plan over the same dataset draws what is missing.
	s := p.spec
	s.WhyNot, s.Samples = true, max(s.Samples, 32)
	if s.NW == 0 {
		s.NW = 1000
	}
	extra := &plan{spec: s, seed: p.seed, ds: p.ds, tree: p.tree, pool: p.pool}
	if len(extra.pool) == 0 {
		extra.pool = []weightSet{makeWeightSet(rng, s.NW, p.ds.Dim)}
	}
	pool = extra.pool
	for len(queries) < min(replayQueries, 64) {
		queries = append(queries, extra.rtopkOp(rng))
	}
	if len(whynots) == 0 {
		if err := extra.makeWhyNots(12); err != nil {
			return nil, nil, nil, nil, err
		}
		whynots = extra.opList(rng, 12, nil, 0)
	}
	for len(inserts) < replayMutations {
		pt := make(vec.Point, p.ds.Dim)
		for j := range pt {
			pt[j] = rng.Float64()
		}
		inserts = append(inserts, pt)
	}
	return queries, pool, whynots, inserts, nil
}

// mqpProblem states instance o's MQP quadratic program the way core.MQP
// does (§4.2): minimize ‖x − q‖² subject to wᵢ·x ≤ f(wᵢ, pᵢ) with pᵢ the
// top k-th point under wᵢ, and 0 ≤ x ≤ q.
func mqpProblem(t *rtree.Tree, o op) qp.Problem {
	d := len(o.Q)
	h := mat.New(d, d)
	c := make([]float64, d)
	g := mat.New(len(o.Wm)+2*d, d)
	hv := make([]float64, len(o.Wm)+2*d)
	for i := 0; i < d; i++ {
		h.Set(i, i, 2)
		c[i] = -2 * o.Q[i]
		g.Set(len(o.Wm)+i, i, 1)
		hv[len(o.Wm)+i] = o.Q[i]
		g.Set(len(o.Wm)+d+i, i, -1)
	}
	for i, w := range o.Wm {
		copy(g.Row(i), w)
		kth, _ := topk.KthPoint(t, w, queryK) // datasets here have more than k points
		hv[i] = kth.Score
	}
	return qp.Problem{H: h, C: c, G: g, Hv: hv}
}

func replayLayers(ctx context.Context, p *plan, dir string, m metrics) error {
	queries, pool, whynots, inserts, err := p.replayInputs()
	if err != nil {
		return err
	}
	weights := func(o op) []vec.Weight { return pool[o.WSet].W }
	query := func(i int) op { return queries[i%len(queries)] }
	whynot := func(i int) op { return whynots[i%len(whynots)] }
	// set stores a layer's median in the unit the registry names.
	var firstErr error
	set := func(name string, div float64, n int, fn func(i int) error) {
		if firstErr != nil {
			return
		}
		ns, err := timed(ctx, n, fn)
		if err != nil {
			firstErr = err
		}
		m[name] = ns / div
	}
	const us, ms = 1e3, 1e6

	// Construction, cold each time.
	raw := rawPoints(p.ds)
	var ds *dataset.Dataset
	set("dataset.gen_ms", ms, replayBuilds, func(int) error { ds = makeDataset(p.spec); return nil })
	var tree *rtree.Tree
	set("rtree.bulk_ms", ms, replayBuilds, func(int) error { tree = rtree.Bulk(ds.Points, nil); return nil })
	var ix *wqrtq.Index
	set("index.build_ms", ms, replayBuilds, func(int) error { ix, err = wqrtq.NewIndex(raw); return err })
	var sky *skyband.Cache
	var band *skyband.Band
	set("skyband.build_ms", ms, replayBuilds, func(int) error {
		sky = skyband.NewCache(tree, nil)
		band = sky.Band(queryK)
		return nil
	})
	// The band is built, so the grid's time is its own. Beyond d = 4 the
	// cell index declines: Grid returns nil at once and the lookup reads 0.
	var grid *cellindex.Grid
	set("cellindex.build_ms", ms, replayBuilds, func(int) error {
		grid = cellindex.NewCache(sky, p.ds.Dim, nil).Grid(queryK)
		return nil
	})
	if firstErr != nil {
		return firstErr
	}

	// Top-k and rank on the full tree.
	set("topk.topk_us", us, replayQueries, func(i int) error {
		o := query(i)
		_, err := topk.TopKCtx(ctx, tree, weights(o)[i%len(weights(o))], queryK)
		return err
	})
	set("topk.rank_us", us, replayQueries, func(i int) error {
		o := query(i)
		w := weights(o)[i%len(weights(o))]
		_, err := topk.RankCtx(ctx, tree, w, vec.Score(w, o.Q))
		return err
	})

	// Reverse top-k, one layer at a time, then through the public paths.
	m["cellindex.rtopk_us"] = 0
	if grid != nil {
		set("cellindex.rtopk_us", us, replayQueries, func(i int) error {
			o := query(i)
			_, _, _, err := grid.ReverseTopK(ctx, weights(o), o.Q, queryK)
			return err
		})
	}
	coords := band.Coords()
	set("kernel.coords_rtopk_us", us, replayQueries, func(i int) error {
		o := query(i)
		_, _, err := rtopk.BichromaticCoordsCtx(ctx, coords, weights(o), o.Q, queryK, nil)
		return err
	})
	sc := kernel.GetScratch()
	defer kernel.PutScratch(sc)
	nw := len(pool[0].W)
	fqs, counts := make([]float64, nw), make([]int, nw)
	set("kernel.countbelow_ns_per_point", float64(nw*max(coords.Len(), 1)), replayQueries, func(i int) error {
		o := query(i)
		W := weights(o)
		for j, w := range W {
			fqs[j] = vec.Score(w, o.Q)
		}
		kernel.CountBelowWeights(coords, len(W), func(j int) []float64 { return W[j] }, fqs, counts, sc, nil)
		return nil
	})
	set("rtopk.rta_band_us", us, replayQueries, func(i int) error {
		o := query(i)
		_, _, err := rtopk.BichromaticCtx(ctx, band.Tree(), weights(o), o.Q, queryK)
		return err
	})
	set("rtopk.rta_full_us", us, replayQueries, func(i int) error {
		o := query(i)
		_, _, err := rtopk.BichromaticCtx(ctx, tree, weights(o), o.Q, queryK)
		return err
	})
	rtReq := func(i int) wqrtq.ReverseTopKRequest {
		o := query(i)
		W := make([][]float64, len(weights(o)))
		for j, w := range weights(o) {
			W[j] = w
		}
		return wqrtq.ReverseTopKRequest{Q: o.Q, K: queryK, W: W}
	}
	set("index.rtopk_us", us, replayQueries, func(i int) error {
		_, err := ix.ReverseTopKCtx(ctx, rtReq(i))
		return err
	})
	// serve's defaults: linger 200 µs, cache 4096, admission on.
	engIx, err := wqrtq.NewIndex(raw)
	if err != nil {
		return err
	}
	eng, err := wqrtq.NewEngine(engIx, wqrtq.EngineConfig{BatchLinger: 200 * time.Microsecond, CacheSize: 4096, Admission: true})
	if err != nil {
		return err
	}
	if _, err := eng.ReverseTopKCtx(ctx, rtReq(len(queries)-1)); err != nil { // builds band and grid
		eng.Close()
		return err
	}
	set("engine.inproc_rtopk_us", us, len(queries)-1, func(i int) error {
		_, err := eng.ReverseTopKCtx(ctx, rtReq(i))
		return err
	})
	if err := eng.Close(); err != nil {
		return err
	}
	m["engine.queue_overhead_us"] = m["engine.inproc_rtopk_us"] - m["index.rtopk_us"]

	// The why-not pipeline: its parts, then the three refinements through
	// the public Index (which supplies the skyband source), then the whole.
	incs := make([][]vec.Point, len(whynots)) // the incomparable points of each instance
	set("dominance.findincom_us", us, replayWhyNots, func(i int) error {
		sets := dominance.FindIncom(tree, whynot(i).Q)
		inc := make([]vec.Point, len(sets.I))
		for j, r := range sets.I {
			inc[j] = r.Point
		}
		incs[i%len(whynots)] = inc
		return nil
	})
	rng := rand.New(rand.NewSource(p.seed))
	set("sample.weights_us", us, replayWhyNots, func(i int) error {
		inc := incs[i%len(whynots)]
		if inc == nil { // the budget ended findincom's loop before this instance
			inc = incs[0]
		}
		ws, err := sample.NewWeightSampler(whynot(i).Q, inc)
		if err != nil {
			return err
		}
		ws.SampleN(rng, 100)
		return nil
	})
	set("qp.solve_us", us, replayWhyNots, func(i int) error {
		_, err := qp.Solve(mqpProblem(tree, whynot(i)), qp.Options{})
		return err
	})
	opts := func(o op) wqrtq.Options { return wqrtq.Options{SampleSize: o.Samples, Seed: o.Seed} }
	set("core.mqp_us", us, replayWhyNots, func(i int) error {
		o := whynot(i)
		_, err := ix.ModifyQueryCtx(ctx, wqrtq.ModifyQueryRequest{Q: o.Q, K: queryK, Wm: o.Wm, Opts: opts(o)})
		return err
	})
	set("core.mwk_ms", ms, replayWhyNots, func(i int) error {
		o := whynot(i)
		_, err := ix.ModifyPreferencesCtx(ctx, wqrtq.ModifyPreferencesRequest{Q: o.Q, K: queryK, Wm: o.Wm, Opts: opts(o)})
		return err
	})
	set("core.mqwk_ms", ms, replayWhyNots, func(i int) error {
		o := whynot(i)
		_, err := ix.ModifyAllCtx(ctx, wqrtq.ModifyAllRequest{Q: o.Q, K: queryK, Wm: o.Wm, Opts: opts(o)})
		return err
	})
	set("core.whynot_ms", ms, replayWhyNots, func(i int) error {
		o := whynot(i)
		_, err := ix.WhyNotCtx(ctx, wqrtq.WhyNotRequest{Q: o.Q, K: queryK, W: o.Wm, Opts: opts(o)})
		return err
	})

	// The mutation path: copy-on-write clone plus the change, then the log.
	set("dynamic.clone_insert_us", us, replayMutations, func(i int) error {
		_, err := ix.Clone().Insert(inserts[i])
		return err
	})
	set("dynamic.clone_delete_us", us, replayMutations, func(i int) error {
		_, err := ix.Clone().Delete(i * (len(raw) / replayMutations))
		return err
	})
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fs := storage.OS()
	w, err := wal.Create(fs, dir, filepath.Join(dir, wal.SegmentName(1)), 1, wal.SyncAlways)
	if err != nil {
		return err
	}
	set("wal.append_sync_us", us, replayMutations, func(i int) error {
		return w.AppendInsert(uint64(i+1), uint64(len(raw)+i), inserts[i])
	})
	if err := w.Close(); err != nil {
		return err
	}
	snap := filepath.Join(dir, "replay.snap")
	set("pagestore.write_ms", ms, replayBuilds, func(int) error {
		f, err := fs.Create(snap)
		if err != nil {
			return err
		}
		if err := pagestore.Write(f, tree, ds.Points, 0, nil); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	set("pagestore.read_ms", ms, replayBuilds, func(int) error {
		f, err := fs.Open(snap)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = pagestore.Read(f)
		return err
	})
	if firstErr != nil {
		return firstErr
	}
	size, err := fs.Size(snap)
	if err != nil {
		return err
	}
	m["pagestore.bytes_per_point"] = float64(size) / float64(len(raw))

	// The admission door: one sample is 1000 admit+done pairs.
	ctl := admission.NewController(admission.Config{})
	set("admission.admit_ns", 1000, 50, func(int) error {
		for j := 0; j < 1000; j++ {
			if t, shed := ctl.Admit(ctx, admission.Query); shed == nil {
				t.Done(time.Microsecond)
			}
		}
		return nil
	})
	return firstErr
}
