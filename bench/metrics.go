package main

// The metric registry: every name the harness can emit, with its unit, the
// direction that counts as better and — for layer metrics — the end-to-end
// numbers it is expected to move (README, "How the metrics interact").
// BENCHMARK.json lists the same names; TestBenchmarkJSONMatchesRegistry
// keeps the two from drifting.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

type metricDef struct {
	Name, Unit, Better string
	// Moves says which end-to-end metric on which workload the layer
	// metric should move; empty for end-to-end metrics.
	Moves string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"lat_p50_ms", "ms", "lower", ""},
	{"lat_p95_ms", "ms", "lower", ""},
}

const (
	mvCell    = "lat_p50_ms, ops_per_s on rtopk_cell_un3; no change on rtopk_band_nba13, whynot_un3"
	mvHTTP    = "lat_p50_ms, ops_per_s on rtopk_cell_un3 and rtopk_band_nba13 (250 KB bodies); no change on whynot_un3"
	mvBand    = "lat_p50_ms, lat_p95_ms, ops_per_s on rtopk_band_nba13; barely rtopk_cell_un3"
	mvWhyNot  = "every metric of whynot_un3"
	mvNone    = "none at this size (under 0.1% of engine.whynot_avg_ms)"
	mvRebuild = "setup_s everywhere; lat_p95_ms, ops_per_s on mixed_un3_wal (one rebuild per mutation)"
	mvWrite   = "write.p50_ms, write.p95_ms, ops_per_s on mixed_un3_wal only"
	mvGuard   = "catches work moved into set-up or caches by any other layer"
	mvLoad    = "none directly: a shed op is a failed op, and a limit near the number of callers warns of it"
)

var perLayer = []metricDef{
	// Client spans (traced window).
	{"client.send_ms", "ms", "lower", mvHTTP},
	{"client.wait_ms", "ms", "lower", "lat_p50_ms on every workload (server time as the client sees it)"},
	{"client.read_ms", "ms", "lower", mvHTTP},
	{"client.req_bytes", "B", "lower", mvHTTP},
	{"client.resp_bytes", "B", "lower", mvHTTP},
	{"trace.overhead_frac", "frac", "lower", "none; bounds what tracing itself costs"},
	{"write.p50_ms", "ms", "lower", mvWrite},
	{"write.p95_ms", "ms", "lower", mvWrite},
	// The server seen from /proc.
	{"serve.cpu_ms_per_op", "ms", "lower", "ops_per_s on every workload (the server shares the CPU with the callers)"},
	{"serve.rss_peak_mb", "MB", "lower", mvGuard},
	// /v1/stats deltas over the measured window.
	{"engine.rtopk_avg_ms", "ms", "lower", "lat_p50_ms on both rtopk workloads and mixed_un3_wal"},
	{"engine.whynot_avg_ms", "ms", "lower", mvWhyNot},
	{"engine.insert_avg_ms", "ms", "lower", mvWrite},
	{"engine.delete_avg_ms", "ms", "lower", mvWrite},
	{"http.overhead_ms", "ms", "lower", mvHTTP},
	{"engine.cache_hit_frac", "frac", "higher", mvCell},
	{"engine.cache_evictions", "count", "lower", mvCell},
	{"admission.shed_frac", "frac", "lower", mvLoad},
	{"admission.query_limit", "count", "higher", mvLoad},
	{"admission.decreases", "count", "lower", mvLoad},
	{"skyband.builds", "count", "lower", mvRebuild},
	{"skyband.hits", "count", "higher", mvRebuild},
	{"skyband.fallbacks", "count", "lower", mvBand},
	{"skyband.band_points", "count", "lower", mvBand},
	{"cellindex.builds", "count", "lower", mvRebuild},
	{"cellindex.lookups_per_op", "count", "higher", mvCell},
	{"cellindex.fallbacks", "count", "lower", mvCell},
	{"cellindex.cells", "count", "lower", mvGuard},
	{"cellindex.candidates", "count", "lower", mvCell},
	{"kernel.blocks", "count", "lower", mvCell},
	{"kernel.weights_per_block", "count", "higher", mvCell},
	{"kernel.points_per_op", "count", "lower", mvCell},
	{"rtopk.evaluated_frac", "frac", "lower", mvBand},
	{"rtopk.candidate_points_per_op", "count", "lower", mvBand},
	{"wal.appends", "count", "higher", mvWrite},
	{"wal.syncs_per_append", "count", "lower", mvWrite},
	{"wal.bytes_per_append", "B", "lower", mvWrite},
	{"wal.checkpoints", "count", "lower", "lat_p95_ms on mixed_un3_wal (background snapshot write)"},
	{"durability.recover_ms", "ms", "lower", "setup_s of a restart on mixed_un3_wal"},
	{"durability.replayed_records", "count", "lower", "durability.recover_ms"},
	// Layer replay: in-process calls on the workload's dataset and ops.
	{"dataset.gen_ms", "ms", "lower", "none (harness cost, excluded from setup_s)"},
	{"rtree.bulk_ms", "ms", "lower", "setup_s everywhere"},
	{"index.build_ms", "ms", "lower", "setup_s everywhere"},
	{"topk.topk_us", "us", "lower", mvBand},
	{"topk.rank_us", "us", "lower", mvBand},
	{"skyband.build_ms", "ms", "lower", mvRebuild},
	{"cellindex.build_ms", "ms", "lower", mvRebuild},
	{"cellindex.rtopk_us", "us", "lower", mvCell},
	{"kernel.coords_rtopk_us", "us", "lower", mvCell},
	{"kernel.countbelow_ns_per_point", "ns", "lower", mvWhyNot + "; " + mvCell},
	{"rtopk.rta_band_us", "us", "lower", mvBand},
	{"rtopk.rta_full_us", "us", "lower", "none while the band is on (the fallback path)"},
	{"dominance.findincom_us", "us", "lower", mvWhyNot},
	{"sample.weights_us", "us", "lower", mvWhyNot},
	{"qp.solve_us", "us", "lower", mvNone},
	{"core.mqp_us", "us", "lower", mvNone},
	{"core.mwk_ms", "ms", "lower", "every metric of whynot_un3, weakly (~10% of engine.whynot_avg_ms)"},
	{"core.mqwk_ms", "ms", "lower", mvWhyNot + " (~80% of engine.whynot_avg_ms)"},
	{"core.whynot_ms", "ms", "lower", mvWhyNot},
	{"index.rtopk_us", "us", "lower", "engine.rtopk_avg_ms on the workload's dataset"},
	{"engine.inproc_rtopk_us", "us", "lower", "engine.rtopk_avg_ms on the workload's dataset"},
	{"engine.queue_overhead_us", "us", "lower", mvCell},
	{"dynamic.clone_insert_us", "us", "lower", mvWrite},
	{"dynamic.clone_delete_us", "us", "lower", mvWrite},
	{"wal.append_sync_us", "us", "lower", mvWrite},
	{"pagestore.write_ms", "ms", "lower", "wal.checkpoints' cost; lat_p95_ms on mixed_un3_wal when one fires"},
	{"pagestore.read_ms", "ms", "lower", "durability.recover_ms"},
	{"pagestore.bytes_per_point", "B", "lower", "pagestore.write_ms, pagestore.read_ms"},
	{"admission.admit_ns", "ns", "lower", "http.overhead_ms (the door every request passes)"},
}

// metrics holds the values of one run by name.
type metrics map[string]float64

// pick returns the values of defs in registry order; a metric the run did
// not set is an error, so a renamed metric cannot silently read as zero.
func (m metrics) pick(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{v, d.Unit}
	}
	return out, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one run, and the last line of its output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r report) writeLine(w io.Writer) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// printTable lists every measured metric of the registry by name with its
// unit, for people; the JSON line carries only what the contract asks of
// the run's mode.
func printTable(w io.Writer, title string, m metrics, notes map[string]string) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", d.Name, v, d.Unit, notes[d.Name])
			}
		}
	}
}

// percentile is the smallest value with at least p of the sorted values at
// or below it; 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
