package wqrtq

// BenchmarkCellIndex measures the materialized reverse-top-k cell index on
// the hot endpoints, cellindex on vs off (the -cellindex=off ablation;
// skyband and kernel on in both arms), on UN data with d = 3, k = 10,
// |W| = 200, |Wm| = 20, |S| = 16 for n in {20k, 100k}.
// TestRecordBenchCellIndex re-runs the n = 20k cells through
// testing.Benchmark and writes BENCH_cellindex.json with the run
// environment recorded from the process itself:
//
//	RECORD_BENCH=1 go test -run TestRecordBenchCellIndex .

import (
	"fmt"
	"os"
	"testing"
)

func newCellIndexBenchEnv(tb testing.TB, n int, cellOn bool) *skybandBenchEnv {
	tb.Helper()
	env := newKernelBenchEnv(tb, n, true)
	env.ix.cellOff = !cellOn
	return env
}

func BenchmarkCellIndex(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		for _, mode := range []string{"on", "off"} {
			env := newCellIndexBenchEnv(b, n, mode == "on")
			for _, ep := range skybandBenchEndpoints {
				b.Run(fmt.Sprintf("n=%d/cellindex=%s/%s", n, mode, ep), func(b *testing.B) {
					env.run(b, ep)
				})
			}
		}
	}
}

// TestRecordBenchCellIndex regenerates BENCH_cellindex.json. It is skipped
// unless RECORD_BENCH is set, keeping the recording mechanism compiled and
// in lockstep with the benchmark code it snapshots.
func TestRecordBenchCellIndex(t *testing.T) {
	if os.Getenv("RECORD_BENCH") == "" {
		t.Skip("set RECORD_BENCH=1 to re-record BENCH_cellindex.json")
	}
	const n = 20000
	snap := newBenchSnapshot("BenchmarkCellIndex",
		"Recorded by `RECORD_BENCH=1 go test -run TestRecordBenchCellIndex .` — the environment "+
			"fields above come from the recording process itself. cellindex=off preserves the "+
			"banded blocked-kernel execution paths (the -cellindex=off ablation) with the skyband "+
			"and kernel sub-indexes on in both arms; results are bit-identical either way "+
			"(TestCellIndexDifferential, TestCellIndexWhyNotPenalties, FuzzCellIndex). Compare the "+
			"cellindex=on rows against BENCH_kernel.json's kernel=on rows (same dataset "+
			"configuration).", n)
	for _, mode := range []string{"on", "off"} {
		env := newCellIndexBenchEnv(t, n, mode == "on")
		// Warm the epoch caches so the recorded steady-state numbers do
		// not fold one-time grid construction into the first iteration.
		if _, err := env.ix.ReverseTopK(env.W, env.q, benchK); err != nil {
			t.Fatal(err)
		}
		for _, ep := range skybandBenchEndpoints {
			res := testing.Benchmark(func(b *testing.B) { env.run(b, ep) })
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			snap.Results = append(snap.Results, benchRecord{
				N: n, Skyband: "on", Kernel: "on", CellIndex: mode, Endpoint: ep,
				Iterations: res.N, NsPerOp: ns, ReqPerSec: 1e9 / ns,
			})
		}
	}
	writeBenchSnapshot(t, "BENCH_cellindex.json", snap)
}
