package main

// Structure tests: they run the harness's own code path at toy scale and
// assert what it emits, never how fast. Timing is the benchmark's business.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readBenchmarkJSON(t *testing.T) (bj struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, harness %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, over 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the registry %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string, d metricDef) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("BENCHMARK.json %s [%s, %s], registry %s [%s, %s]", name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for i, e := range bj.EndToEnd {
		check(e.Name, e.Unit, e.Better, endToEnd[i])
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for i, l := range bj.PerLayer {
		check(l.Name, l.Unit, l.Better, perLayer[i])
		if perLayer[i].Moves == "" {
			t.Errorf("%s: no end-to-end metric it is expected to move", l.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness's -seconds default %d", bj.RunSeconds, defaultSeconds)
	}
}

func TestOpListsAreDeterministic(t *testing.T) {
	render := func(s spec, seed int64) []byte {
		p, err := makePlan(s, seed)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := p.write(dir); err != nil {
			t.Fatal(err)
		}
		ops, err := os.ReadFile(filepath.Join(dir, "ops.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	for _, w := range workloads {
		s := w.toy()
		a, b, c := render(s, 7), render(s, 7), render(s, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from one seed differ", s.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds generate the same inputs", s.Name)
		}
	}
}

// TestSmokeAllWorkloads drives a real server through all four workloads,
// plain and traced, and checks that every metric of the mode is emitted,
// nothing fails, and the trace's spans nest.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server")
	}
	bj := readBenchmarkJSON(t)
	out := t.TempDir()
	bin := filepath.Join(out, "wqrtq")
	build := exec.Command("go", "build", "-o", bin, "./cmd/wqrtq")
	build.Dir = ".."
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/wqrtq: %v\n%s", err, msg)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{bin: bin, outDir: out, seed: 3, seconds: 2, trace: trace, log: io.Discard}
			rep, err := runWorkload(context.Background(), cfg, w.toy())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, l := range bj.PerLayer {
					want[l.Name] = l.Unit
				}
			} else {
				for _, e := range bj.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := rep.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s [%s] missing or with unit %q", w.Name, trace, name, unit, got.Unit)
				}
			}
			if !trace {
				for _, e := range bj.EndToEnd {
					if rep.Metrics[e.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.Name, e.Name, rep.Metrics[e.Name].Value)
					}
				}
				continue
			}
			checkSpans(t, filepath.Join(out, "trace-"+w.Name+".json"))
			runDir := filepath.Join(out, "run-"+w.Name)
			if _, err := os.Stat(filepath.Join(runDir, "ops.jsonl")); err != nil {
				t.Errorf("%s: the run's inputs were not left for inspection: %v", w.Name, err)
			}
			if _, err := os.Stat(filepath.Join(runDir, "tmp")); !os.IsNotExist(err) {
				t.Errorf("%s: the run's temporary directory was left behind", w.Name)
			}
		}
	}
}

// checkSpans requires every child span to name a root of the same op that
// contains it, and every root to have its three children.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	var spans []span
	if err := readJSON(path, &spans); err != nil {
		t.Fatal(err)
	}
	roots := map[int64]span{}
	children := map[int64]int{}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name != "http.roundtrip" {
				t.Errorf("%s: root span named %q", path, s.Name)
			}
			roots[s.ID] = s
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		r, ok := roots[s.Parent]
		if !ok || r.Client != s.Client || r.Op != s.Op {
			t.Fatalf("%s: span %d (%s) has no root of the same op", path, s.ID, s.Name)
		}
		if s.StartNs < r.StartNs || s.EndNs > r.EndNs || s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) [%d, %d] outside its root [%d, %d]", path, s.ID, s.Name, s.StartNs, s.EndNs, r.StartNs, r.EndNs)
		}
		children[s.Parent]++
	}
	if len(roots) == 0 {
		t.Errorf("%s: no spans", path)
	}
	for id := range roots {
		if children[id] != 3 {
			t.Errorf("%s: root %d has %d children, want send, wait, read", path, id, children[id])
		}
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		rf := resultFile{Seed: 1, Workloads: map[string]report{}}
		for _, w := range workloads {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				v := 100.0
				if d.Better == "lower" {
					v *= scale
				} else {
					v /= scale
				}
				m[d.Name] = metricValue{v, d.Unit}
			}
			rf.Workloads[w.Name] = report{Correct: true, Attempted: 1, Metrics: m}
		}
		raw, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, worse := write("a.json", 1), write("b.json", 1.01), write("c.json", 1.5)
	bench := filepath.Join("..", "BENCHMARK.json")
	if err := compareFiles(io.Discard, bench, base, same); err != nil {
		t.Errorf("1%% apart: %v", err)
	}
	if err := compareFiles(io.Discard, bench, base, worse); err == nil {
		t.Error("50% worse on every metric passed the comparison")
	}
	if err := compareFiles(io.Discard, bench, worse, base); err != nil {
		t.Errorf("an improvement failed the comparison: %v", err)
	}
}
