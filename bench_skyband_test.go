package wqrtq

// BenchmarkSkyband measures the k-skyband sub-index on the three hot
// reverse-top-k-shaped endpoints, skyband on vs off, on UN data with
// d = 3, k = 10, |W| = 200, |Wm| = 20, |S| = 16 for n in {20k, 100k}. TestRecordBench re-runs the n = 20k
// cells through testing.Benchmark and writes BENCH_skyband.json with the
// run environment (gomaxprocs included) recorded from the process itself,
// so committed snapshots are reproducible rather than hand-annotated:
//
//	RECORD_BENCH=1 go test -run TestRecordBench .

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"wqrtq/internal/dataset"
	"wqrtq/internal/sample"
)

// skybandBenchEnv is one benchmark cell: a prebuilt index (skyband on or
// off) plus the shared workload.
type skybandBenchEnv struct {
	ix   *Index
	w    []float64
	q    []float64
	W    [][]float64
	wnW  [][]float64
	opts Options
}

func newSkybandBenchEnv(tb testing.TB, n int, skybandOn bool) *skybandBenchEnv {
	tb.Helper()
	ds := dataset.Independent(n, benchDim, 1)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		tb.Fatal(err)
	}
	ix.skyOff = !skybandOn
	rng := rand.New(rand.NewSource(13))
	W := make([][]float64, 200)
	for i := range W {
		W[i] = sample.RandSimplex(rng, benchDim)
	}
	return &skybandBenchEnv{
		ix:   ix,
		w:    []float64{0.2, 0.3, 0.5},
		q:    []float64{0.02, 0.03, 0.02},
		W:    W,
		wnW:  W[:20],
		opts: Options{SampleSize: 16, Seed: 1},
	}
}

func (e *skybandBenchEnv) run(b *testing.B, endpoint string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var err error
		switch endpoint {
		case "ReverseTopK":
			_, err = e.ix.ReverseTopK(e.W, e.q, benchK)
		case "WhyNot":
			_, err = e.ix.WhyNot(e.q, benchK, e.wnW, e.opts)
		case "Rank":
			_, err = e.ix.Rank(e.w, e.q)
		default:
			b.Fatalf("unknown endpoint %q", endpoint)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

var skybandBenchEndpoints = []string{"ReverseTopK", "WhyNot", "Rank"}

func BenchmarkSkyband(b *testing.B) {
	for _, n := range []int{20000, 100000} {
		for _, mode := range []string{"on", "off"} {
			env := newSkybandBenchEnv(b, n, mode == "on")
			for _, ep := range skybandBenchEndpoints {
				b.Run(fmt.Sprintf("n=%d/skyband=%s/%s", n, mode, ep), func(b *testing.B) {
					env.run(b, ep)
				})
			}
		}
	}
}

// benchRecord is one row of a committed benchmark snapshot.
type benchRecord struct {
	N          int     `json:"n"`
	Skyband    string  `json:"skyband,omitempty"`
	Kernel     string  `json:"kernel,omitempty"`
	CellIndex  string  `json:"cellindex,omitempty"`
	Fsync      string  `json:"fsync,omitempty"`
	Endpoint   string  `json:"endpoint"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	ReqPerSec  float64 `json:"requests_per_sec"`
}

// benchSnapshot is the BENCH_*.json document shape. Every environment
// field is captured from the running process — gomaxprocs in particular
// was hand-edited prose in earlier snapshots and is now recorded from the
// run itself.
type benchSnapshot struct {
	Benchmark  string        `json:"benchmark"`
	Date       string        `json:"date"`
	Go         string        `json:"go"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	GOAMD64    string        `json:"goamd64"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Dataset    any           `json:"dataset"`
	Note       string        `json:"note"`
	Results    []benchRecord `json:"results"`
}

// TestRecordBench regenerates BENCH_skyband.json. It is skipped unless
// RECORD_BENCH is set (it takes minutes), keeping the recording mechanism
// compiled and in lockstep with the benchmark code it snapshots.
func TestRecordBench(t *testing.T) {
	if os.Getenv("RECORD_BENCH") == "" {
		t.Skip("set RECORD_BENCH=1 to re-record BENCH_skyband.json")
	}
	const n = 20000
	snap := newBenchSnapshot("BenchmarkSkyband",
		"Recorded by `RECORD_BENCH=1 go test -run TestRecordBench$ .` — the environment "+
			"fields above come from the recording process itself. skyband=off preserves the "+
			"pre-sub-index execution paths (the -skyband=off ablation); results are bit-identical "+
			"either way (TestSkybandDifferential).", n)
	for _, mode := range []string{"on", "off"} {
		env := newSkybandBenchEnv(t, n, mode == "on")
		// Warm the epoch caches so the recorded steady-state numbers do not
		// fold one-time band construction into the first iteration.
		if _, err := env.ix.ReverseTopK(env.W, env.q, benchK); err != nil {
			t.Fatal(err)
		}
		for _, ep := range skybandBenchEndpoints {
			res := testing.Benchmark(func(b *testing.B) { env.run(b, ep) })
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			snap.Results = append(snap.Results, benchRecord{
				N: n, Skyband: mode, Endpoint: ep,
				Iterations: res.N, NsPerOp: ns, ReqPerSec: 1e9 / ns,
			})
		}
	}
	writeBenchSnapshot(t, "BENCH_skyband.json", snap)
}

// writeBenchSnapshot commits one benchmark snapshot document; shared by
// the RECORD_BENCH recorders.
func writeBenchSnapshot(t *testing.T, path string, snap benchSnapshot) {
	t.Helper()
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d results)", path, len(snap.Results))
}

// newBenchSnapshot captures the run environment for one snapshot document.
func newBenchSnapshot(benchmark, note string, n int) benchSnapshot {
	return benchSnapshot{
		Benchmark:  benchmark,
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOAMD64:    goamd64(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Dataset: map[string]any{
			"shape": "independent", "n": n, "d": benchDim, "k": benchK,
			"reverse_topk_vectors": 200, "whynot_vectors": 20, "whynot_samples": 16,
		},
		Note: note,
	}
}

// goamd64 resolves the microarchitecture level the recording binary was
// compiled for: the build info of the test binary itself when stamped,
// else the GOAMD64 environment variable, else "unknown". Kernel-level
// numbers (FMA contraction, bounds-check-free sweeps) are not comparable
// across levels, so the snapshot must say which one produced them.
func goamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	if v := os.Getenv("GOAMD64"); v != "" {
		return v
	}
	return "unknown"
}
