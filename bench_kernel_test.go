package wqrtq

// BenchmarkKernel measures the blocked SoA scoring kernel on the hot
// endpoints, kernel on vs off (the -kernel=off scalar ablation, skyband on
// in both arms), on UN data with d = 3, k = 10, |W| = 200, |Wm| = 20,
// |S| = 16 for n in {20k, 100k}.
// TestRecordBenchKernel re-runs the n = 20k cells through
// testing.Benchmark and writes BENCH_kernel.json with the run environment
// recorded from the process itself:
//
//	RECORD_BENCH=1 go test -run TestRecordBenchKernel .

import (
	"fmt"
	"os"
	"testing"
)

func newKernelBenchEnv(tb testing.TB, n int, kernelOn bool) *skybandBenchEnv {
	tb.Helper()
	env := newSkybandBenchEnv(tb, n, true)
	env.ix.kernelOff = !kernelOn
	return env
}

func BenchmarkKernel(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		for _, mode := range []string{"on", "off"} {
			env := newKernelBenchEnv(b, n, mode == "on")
			for _, ep := range skybandBenchEndpoints {
				b.Run(fmt.Sprintf("n=%d/kernel=%s/%s", n, mode, ep), func(b *testing.B) {
					env.run(b, ep)
				})
			}
		}
	}
}

// TestRecordBenchKernel regenerates BENCH_kernel.json. It is skipped
// unless RECORD_BENCH is set, keeping the recording mechanism compiled and
// in lockstep with the benchmark code it snapshots.
func TestRecordBenchKernel(t *testing.T) {
	if os.Getenv("RECORD_BENCH") == "" {
		t.Skip("set RECORD_BENCH=1 to re-record BENCH_kernel.json")
	}
	const n = 20000
	snap := newBenchSnapshot("BenchmarkKernel",
		"Recorded by `RECORD_BENCH=1 go test -run TestRecordBenchKernel .` — the environment "+
			"fields above come from the recording process itself. kernel=off preserves the scalar "+
			"per-weight execution paths (the -kernel=off ablation) with the skyband sub-index on in "+
			"both arms; results are bit-identical either way (TestKernelDifferential, "+
			"TestKernelWhyNotPenalties). Compare the kernel=on rows against BENCH_skyband.json's "+
			"skyband=on rows (same dataset configuration).", n)
	for _, mode := range []string{"on", "off"} {
		env := newKernelBenchEnv(t, n, mode == "on")
		// Warm the epoch caches so the recorded steady-state numbers do
		// not fold one-time band construction into the first iteration.
		if _, err := env.ix.ReverseTopK(env.W, env.q, benchK); err != nil {
			t.Fatal(err)
		}
		for _, ep := range skybandBenchEndpoints {
			res := testing.Benchmark(func(b *testing.B) { env.run(b, ep) })
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			snap.Results = append(snap.Results, benchRecord{
				N: n, Skyband: "on", Kernel: mode, Endpoint: ep,
				Iterations: res.N, NsPerOp: ns, ReqPerSec: 1e9 / ns,
			})
		}
	}
	writeBenchSnapshot(t, "BENCH_kernel.json", snap)
}
