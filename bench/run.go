package main

// One run of one workload: generate, set up the server (three times, for a
// steady setup_s), measure a window, verify, tear down.

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wqrtq"
)

// setupRuns is how many times a run starts the server and warms it up;
// setup_s is their median and the last server serves the window.
const setupRuns = 3

type runConfig struct {
	bin     string // the wqrtq binary under test
	outDir  string // bench/out
	seed    int64
	seconds float64
	trace   bool
	log     io.Writer // progress and the metric table
}

func runWorkload(ctx context.Context, cfg runConfig, s spec) (rep report, err error) {
	// The run directory keeps the inputs and the server's stderr for
	// inspection until the workload's next run; what the server and the
	// replay write (data directories, snapshots) goes on every exit path.
	runDir := filepath.Join(cfg.outDir, "run-"+s.Name)
	tmpDir := filepath.Join(runDir, "tmp")
	if err := os.RemoveAll(runDir); err != nil {
		return rep, err
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return rep, err
	}
	defer func() {
		if rmErr := os.RemoveAll(tmpDir); err == nil {
			err = rmErr
		}
	}()

	p, err := makePlan(s, cfg.seed)
	if err != nil {
		return rep, err
	}
	csvPath, err := p.write(runDir)
	if err != nil {
		return rep, err
	}
	hc := newHTTPClient(s.Clients)
	defer hc.CloseIdleConnections()
	m := metrics{}

	// Default flags only: the shipping configuration is what is measured.
	logPath := filepath.Join(runDir, "server.log")
	var args []string
	var srv *server
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.stop(true)
		}
		args = []string{"-data", csvPath}
		if s.Durable {
			args = append(args, "-data-dir", filepath.Join(tmpDir, fmt.Sprintf("data-%d", i)), "-fsync", "always")
		}
		t0 := time.Now()
		srv, err = startServer(cfg.bin, args, logPath)
		if err != nil {
			return rep, err
		}
		defer srv.stop(true)
		if err := srv.waitReady(ctx, hc); err != nil {
			return rep, err
		}
		warm := &client{id: 0, plan: p, hc: hc, base: srv.base}
		for _, r := range runList(ctx, warm, p.warm) {
			if r.failed != "" {
				return rep, fmt.Errorf("warm-up op failed: %s", r.failed)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m["setup_s"] = median(setups)

	clients := make([]*client, s.Clients)
	for i := range clients {
		clients[i] = &client{id: i, plan: p, hc: hc, base: srv.base}
	}
	before, err := srv.stats(hc)
	if err != nil {
		return rep, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return rep, err
	}
	w := runWindow(ctx, clients, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return rep, err
	}
	after, err := srv.stats(hc)
	if err != nil {
		return rep, err
	}
	if m["serve.rss_peak_mb"], err = srv.rssPeakMB(); err != nil {
		return rep, err
	}
	all := w.samples

	var extra []opResult // ops outside the window that still count
	if s.Durable {
		extra, srv, err = checkRecovery(ctx, cfg, p, hc, srv, args, logPath, after, m)
		if err != nil {
			return rep, err
		}
		defer srv.stop(true)
	} else {
		m["durability.recover_ms"], m["durability.replayed_records"] = 0, 0
	}
	srv.stop(false) // the graceful path must work too; later stops are no-ops

	checked := checkRTopK(p, all)
	if err := checkWhyNot(p, all); err != nil {
		return rep, err
	}

	st := w.stats()
	m["ops_per_s"] = st.opsPerS
	m["lat_p50_ms"] = st.p50
	m["lat_p95_ms"] = st.p95
	m["write.p50_ms"] = st.writeP50
	m["write.p95_ms"] = st.writeP95
	statsMetrics(m, before, after, all)
	m["serve.cpu_ms_per_op"] = ratio((cpu1-cpu0)*1000, float64(len(all)))
	if cfg.trace {
		clientMetrics(m, w)
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+s.Name+".json"), w.spans()); err != nil {
			return rep, err
		}
		if err := replayLayers(ctx, p, filepath.Join(tmpDir, "replay"), m); err != nil {
			return rep, fmt.Errorf("layer replay: %w", err)
		}
	}

	rep = report{Attempted: len(all) + len(extra)}
	var reasons []string
	for _, r := range append(all, extra...) {
		if r.failed != "" {
			rep.Failed++
			if len(reasons) < 5 {
				reasons = append(reasons, fmt.Sprintf("%s op %d of client %d: %s", r.op.Kind, r.idx, r.client, r.failed))
			}
		}
	}
	rep.Correct = rep.Failed == 0
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if rep.Metrics, err = m.pick(defs); err != nil {
		return rep, err
	}
	notes := map[string]string{
		"lat_p50_ms": fmt.Sprintf("(%d query ops)", st.queries),
		"lat_p95_ms": fmt.Sprintf("(%d beyond it)", st.queries-int(math.Ceil(0.95*float64(st.queries)))),
	}
	printTable(cfg.log, fmt.Sprintf("%s seed=%d trace=%v: %d ops, %d failed, %d rtopk answers checked against the naive oracle",
		s.Name, cfg.seed, cfg.trace, rep.Attempted, rep.Failed, checked), m, notes)
	for _, r := range reasons {
		fmt.Fprintln(cfg.log, "  FAILED:", r)
	}
	return rep, nil
}

// checkRecovery is the durable workload's ending: SIGKILL the idle server,
// restart it on the same data directory, and require live, num_ids and
// verifyReads re-issued reads to match the answers from before the kill.
// It returns the reads as ops that count, and the restarted server.
func checkRecovery(ctx context.Context, cfg runConfig, p *plan, hc *http.Client, srv *server, args []string, logPath string, pre wqrtq.EngineStats, m metrics) ([]opResult, *server, error) {
	reader := &client{id: 0, plan: p, hc: hc, base: srv.base}
	before := runList(ctx, reader, p.verify)
	srv.stop(true)
	t0 := time.Now()
	srv, err := startServer(cfg.bin, args, logPath)
	if err != nil {
		return nil, nil, err
	}
	if err := srv.waitReady(ctx, hc); err != nil {
		srv.stop(true)
		return nil, nil, err
	}
	m["durability.recover_ms"] = float64(time.Since(t0)) / 1e6
	post, err := srv.stats(hc)
	if err != nil {
		srv.stop(true)
		return nil, nil, err
	}
	m["durability.replayed_records"] = float64(post.WAL.ReplayedRecords)
	reader.base = srv.base
	after := runList(ctx, reader, p.verify)
	sameResults(before, after)
	if post.Live != pre.Live || post.NumIDs != pre.NumIDs {
		after[0].failed = fmt.Sprintf("recovered live=%d num_ids=%d, before the kill live=%d num_ids=%d", post.Live, post.NumIDs, pre.Live, pre.NumIDs)
	}
	if post.WAL.ReplayedRecords != pre.WAL.Appends && pre.WAL.Checkpoints == 0 {
		fmt.Fprintf(cfg.log, "  FINDING: %d WAL records replayed, %d appended before the kill with no checkpoint\n", post.WAL.ReplayedRecords, pre.WAL.Appends)
	}
	return append(before, after...), srv, nil
}

// rampShare of a window is run but not measured: after the 8-op warm-up the
// server still speeds up for a second or two (heap growth, the hot set
// entering the result cache), and a number that depends on how much of
// that a window catches is not steady.
const rampShare = 0.1

// windowStats is a window's throughput and latency percentiles over the
// ops that completed after the ramp and before the window's nominal end.
// A failed op has no latency and no throughput.
type windowStats struct {
	opsPerS, p50, p95, writeP50, writeP95 float64
	queries                               int // latencies behind p50 and p95
}

func (w window) stats() windowStats {
	from := int64(rampShare * float64(w.dur))
	var lat, wlat []float64
	for _, r := range w.samples {
		if r.failed != "" || r.end < from || r.end > int64(w.dur) {
			continue
		}
		ms := float64(r.end-r.start) / 1e6
		if r.op.Kind.isMutation() {
			wlat = append(wlat, ms)
		} else {
			lat = append(lat, ms)
		}
	}
	sort.Float64s(lat)
	sort.Float64s(wlat)
	return windowStats{
		opsPerS:  ratio(float64(len(lat)+len(wlat)), (w.dur - time.Duration(from)).Seconds()),
		p50:      percentile(lat, 0.50),
		p95:      percentile(lat, 0.95),
		writeP50: percentile(wlat, 0.50),
		writeP95: percentile(wlat, 0.95),
		queries:  len(lat),
	}
}

// clientMetrics fills the client-span metrics from the traced ops, and the
// cost of tracing as 1 − untraced/traced median query latency, between the
// two halves of one window's ops. In a closed loop that is what
// 1 − traced/untraced ops_per_s would read, without comparing two stretches
// of time, and the median keeps a few slow ops on one side from deciding it.
func clientMetrics(m metrics, w window) {
	var send, wait, read []float64
	var reqB, respB float64
	var lat [2][]float64 // query latency, untraced and traced
	for _, r := range w.samples {
		if r.failed != "" || r.op.Kind.isMutation() {
			continue
		}
		if !r.traced {
			lat[0] = append(lat[0], float64(r.end-r.start))
			continue
		}
		lat[1] = append(lat[1], float64(r.end-r.start))
		if r.wrote == 0 || r.first == 0 {
			continue
		}
		// A server may answer before it has read the whole request; the
		// send span then ends where the wait would start.
		wrote := min(r.wrote, r.first)
		send = append(send, float64(wrote-r.start)/1e6)
		wait = append(wait, float64(r.first-wrote)/1e6)
		read = append(read, float64(r.end-r.first)/1e6)
		reqB += float64(r.reqB)
		respB += float64(r.respB)
	}
	m["client.send_ms"] = median(send)
	m["client.wait_ms"] = median(wait)
	m["client.read_ms"] = median(read)
	m["client.req_bytes"] = ratio(reqB, float64(len(send)))
	m["client.resp_bytes"] = ratio(respB, float64(len(send)))
	m["trace.overhead_frac"] = 1 - ratio(median(lat[0]), median(lat[1]))
}

// statsMetrics turns the /v1/stats delta across the measured window into
// layer metrics. Gauges (band size, grid size, admission limit) are read
// from the later snapshot.
func statsMetrics(m metrics, a, b wqrtq.EngineStats, ops []opResult) {
	var nQuery, latSum float64
	for _, r := range ops {
		if !r.op.Kind.isMutation() && r.failed == "" {
			nQuery++
			latSum += float64(r.end-r.start) / 1e6
		}
	}
	avgMs := func(name string) float64 {
		d := b.Endpoints[name].Count - a.Endpoints[name].Count
		return ratio(float64(b.Endpoints[name].Total-a.Endpoints[name].Total)/1e6, float64(d))
	}
	m["engine.rtopk_avg_ms"] = avgMs("rtopk")
	m["engine.whynot_avg_ms"] = avgMs("whynot")
	m["engine.insert_avg_ms"] = avgMs("insert")
	m["engine.delete_avg_ms"] = avgMs("delete")
	nq := float64(b.Endpoints["rtopk"].Count - a.Endpoints["rtopk"].Count + b.Endpoints["whynot"].Count - a.Endpoints["whynot"].Count)
	engineMs := float64(b.Endpoints["rtopk"].Total-a.Endpoints["rtopk"].Total+b.Endpoints["whynot"].Total-a.Endpoints["whynot"].Total) / 1e6
	m["http.overhead_ms"] = ratio(latSum, nQuery) - ratio(engineMs, nq)

	hits, misses := float64(b.CacheHits-a.CacheHits), float64(b.CacheMisses-a.CacheMisses)
	m["engine.cache_hit_frac"] = ratio(hits, hits+misses)
	m["engine.cache_evictions"] = float64(b.CacheEvictions - a.CacheEvictions)

	var admitted, shed float64
	for class, sb := range b.Admission {
		sa := a.Admission[class]
		admitted += float64(sb.Admitted - sa.Admitted)
		shed += float64(sb.ShedDoomed + sb.ShedRate + sb.ShedConcurrency + sb.ShedInjected -
			sa.ShedDoomed - sa.ShedRate - sa.ShedConcurrency - sa.ShedInjected)
	}
	m["admission.shed_frac"] = ratio(shed, shed+admitted)
	m["admission.query_limit"] = b.Admission["query"].Limit
	m["admission.decreases"] = float64(b.Admission["query"].Decreases - a.Admission["query"].Decreases)

	m["skyband.builds"] = float64(b.Skyband.Builds - a.Skyband.Builds)
	m["skyband.hits"] = float64(b.Skyband.Hits - a.Skyband.Hits)
	m["skyband.fallbacks"] = float64(b.Skyband.Fallbacks - a.Skyband.Fallbacks)
	m["skyband.band_points"] = float64(b.Skyband.Points)

	m["cellindex.builds"] = float64(b.CellIndex.Builds - a.CellIndex.Builds)
	m["cellindex.lookups_per_op"] = ratio(float64(b.CellIndex.Lookups-a.CellIndex.Lookups), nq)
	m["cellindex.fallbacks"] = float64(b.CellIndex.Fallbacks - a.CellIndex.Fallbacks)
	m["cellindex.cells"] = float64(b.CellIndex.Cells)
	m["cellindex.candidates"] = float64(b.CellIndex.Candidates)

	blocks := float64(b.Kernel.Blocks - a.Kernel.Blocks)
	m["kernel.blocks"] = blocks
	m["kernel.weights_per_block"] = ratio(float64(b.Kernel.Weights-a.Kernel.Weights), blocks)
	m["kernel.points_per_op"] = ratio(float64(b.Kernel.Points-a.Kernel.Points), nq)

	var ev, pr, cand, runs float64
	for ep, tb := range b.RTA {
		ta := a.RTA[ep]
		ev += float64(tb.Evaluated - ta.Evaluated)
		pr += float64(tb.Pruned - ta.Pruned)
		cand += float64(tb.CandidatePoints - ta.CandidatePoints)
		runs += float64(tb.Runs - ta.Runs)
	}
	m["rtopk.evaluated_frac"] = ratio(ev, ev+pr)
	m["rtopk.candidate_points_per_op"] = ratio(cand, runs)

	appends := float64(b.WAL.Appends - a.WAL.Appends)
	m["wal.appends"] = appends
	m["wal.syncs_per_append"] = ratio(float64(b.WAL.Syncs-a.WAL.Syncs), appends)
	m["wal.bytes_per_append"] = ratio(float64(b.WAL.WALBytes-a.WAL.WALBytes), appends)
	m["wal.checkpoints"] = float64(b.WAL.Checkpoints - a.WAL.Checkpoints)
}
