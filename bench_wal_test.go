package wqrtq

// BenchmarkWAL measures the durability tax on the mutation path — insert
// throughput under each fsync policy against the in-memory baseline — and
// the cost of recovery (snapshot load + WAL tail replay), all over the real
// filesystem. TestRecordBenchWAL records the committed BENCH_wal.json at
// the paper-scale n = 1M configuration:
//
//	RECORD_BENCH=1 go test -run TestRecordBenchWAL .
//
// The index is built once and shared across arms (engines mutate
// copy-on-write clones, never the seed), so the recording pays the 1M-point
// bulk load a single time.

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"wqrtq/internal/dataset"
)

func walBenchIndex(tb testing.TB, n int) *Index {
	tb.Helper()
	ds := dataset.Independent(n, benchDim, 42)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// walBenchEngine opens an engine over ix; arm "memory" is the no-DataDir
// baseline, every other arm is a durable engine with that fsync policy and
// background checkpoints disabled (the benchmark isolates the append path).
func walBenchEngine(tb testing.TB, ix *Index, dir, arm string) *Engine {
	tb.Helper()
	cfg := EngineConfig{}
	if arm != "memory" {
		cfg = EngineConfig{DataDir: dir, Fsync: arm, CheckpointBytes: -1}
	}
	e, err := NewEngine(ix, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func walBenchInserts(b *testing.B, e *Engine) {
	rng := rand.New(rand.NewSource(9))
	p := make([]float64, benchDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range p {
			p[j] = rng.Float64()
		}
		if _, _, err := e.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

func BenchmarkWAL(b *testing.B) {
	ix := walBenchIndex(b, 10000)
	for _, arm := range []string{"memory", "off", "interval", "always"} {
		b.Run("insert/fsync="+arm, func(b *testing.B) {
			e := walBenchEngine(b, ix, filepath.Join(b.TempDir(), "state"), arm)
			defer e.Close()
			walBenchInserts(b, e)
		})
	}
	b.Run("recover", func(b *testing.B) {
		dir := filepath.Join(b.TempDir(), "state")
		e := walBenchEngine(b, ix, dir, "off")
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			if _, _, err := e.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			re, err := NewEngine(nil, EngineConfig{DataDir: dir, CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			if err := re.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRecordBenchWAL regenerates BENCH_wal.json at n = 1M: mutation
// throughput across fsync policies plus recovery time (1M-point snapshot
// load + a 1000-record WAL tail replay). Skipped unless RECORD_BENCH is
// set, keeping the recording mechanism compiled and in lockstep with the
// benchmark code it snapshots.
func TestRecordBenchWAL(t *testing.T) {
	if os.Getenv("RECORD_BENCH") == "" {
		t.Skip("set RECORD_BENCH=1 to re-record BENCH_wal.json")
	}
	const n = 1_000_000
	snap := newBenchSnapshot("BenchmarkWAL", map[string]any{"shape": "independent", "n": n, "d": benchDim},
		"Recorded by `RECORD_BENCH=1 go test -run TestRecordBenchWAL .` — the environment fields "+
			"above come from the recording process itself, the data directory lives on that "+
			"machine's filesystem, so the fsync=always row is a property of the recording disk. "+
			"insert rows are single-threaded engine mutations (WAL append + copy-on-write snapshot "+
			"publish; fsync=memory is the no-DataDir in-memory baseline); the recover row is one "+
			"full startup recovery: 1M-point checksummed snapshot load, R-tree reassembly, and a "+
			"1000-record WAL tail replay. Checkpointing is disabled in every arm so the rows "+
			"isolate the append/recovery paths.")

	ix := walBenchIndex(t, n)
	for _, arm := range []string{"memory", "off", "interval", "always"} {
		dir := filepath.Join(t.TempDir(), "state-"+arm)
		e := walBenchEngine(t, ix, dir, arm)
		res := testing.Benchmark(func(b *testing.B) { walBenchInserts(b, e) })
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		ns := float64(res.T.Nanoseconds()) / float64(res.N)
		snap.Results = append(snap.Results, benchRecord{
			N: n, Fsync: arm, Endpoint: "insert",
			Iterations: res.N, NsPerOp: ns, ReqPerSec: 1e9 / ns,
		})
		os.RemoveAll(dir) // each arm's snapshot is ~100MB; don't hold four
	}

	dir := filepath.Join(t.TempDir(), "state-recover")
	e := walBenchEngine(t, ix, dir, "off")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if _, _, err := e.Insert([]float64{rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			re, err := NewEngine(nil, EngineConfig{DataDir: dir, CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			if err := re.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	snap.Results = append(snap.Results, benchRecord{
		N: n, Fsync: "off", Endpoint: "recover",
		Iterations: res.N, NsPerOp: ns, ReqPerSec: 1e9 / ns,
	})
	writeBenchSnapshot(t, "BENCH_wal.json", snap)
}

// benchRecord is one row of BENCH_wal.json.
type benchRecord struct {
	N          int     `json:"n"`
	Fsync      string  `json:"fsync"`
	Endpoint   string  `json:"endpoint"`
	Iterations int     `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	ReqPerSec  float64 `json:"requests_per_sec"`
}

// benchSnapshot is the BENCH_wal.json document shape. Every environment
// field is captured from the running process.
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

// newBenchSnapshot captures the run environment for one snapshot document.
func newBenchSnapshot(benchmark string, ds any, note string) benchSnapshot {
	return benchSnapshot{
		Benchmark:  benchmark,
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOAMD64:    goamd64(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Dataset:    ds,
		Note:       note,
	}
}

// writeBenchSnapshot commits one benchmark snapshot document.
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

// goamd64 resolves the microarchitecture level the recording binary was
// compiled for: the build info of the test binary itself when stamped,
// else the GOAMD64 environment variable, else "unknown". Numbers are not
// comparable across levels, so the snapshot must say which one produced
// them.
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
