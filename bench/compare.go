package main

// -compare A.json B.json: the tool for the repeatability criterion and for
// later issues' before/after rows.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultFile is what -out writes: the reports of one invocation by workload.
type resultFile struct {
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Workloads map[string]report `json:"workloads"`
}

// benchmarkJSON is the part of BENCHMARK.json the comparison needs.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per (workload, end-to-end metric), both values, by
// how much B is worse than A as a share of A, and the bound; it fails if
// any pair exceeds its bound or a workload of A is missing or incorrect
// in B.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) error {
	var bj benchmarkJSON
	var a, b resultFile
	for path, v := range map[string]any{benchmarkPath: &bj, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	exceeded := 0
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-18s not correct in both files\n", name)
			exceeded++
			continue
		}
		for _, d := range bj.EndToEnd {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-18s %-12s missing\n", name, d.Name)
				exceeded++
				continue
			}
			worse := ratio(vb.Value-va.Value, va.Value)
			if d.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > d.Bound {
				flag = "  EXCEEDS"
				exceeded++
			}
			fmt.Fprintf(w, "%-18s %-12s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", name, d.Name, va.Value, vb.Value, 100*worse, 100*d.Bound, flag)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d (workload, metric) pairs exceed their bound", exceeded)
	}
	return nil
}
