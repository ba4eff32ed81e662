// Command bench is the scoreboard for the shipping configuration of wqrtq:
// it starts the real `wqrtq serve` (built from the tree by run.sh) with
// default flags, drives it over HTTP with seeded workloads, checks the
// answers against oracles and prints every metric by name. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is a run that finished but failed an op or an oracle check;
// its result line is printed before the non-zero exit.
var errIncorrect = errors.New("some operations failed or mismatched their oracle")

// defaultSeconds is BENCHMARK.json's run_seconds (kept equal by a test).
const defaultSeconds = 20

func realMain() error {
	root := flag.String("root", "", "repository root, the directory of BENCHMARK.json (run.sh passes it)")
	bin := flag.String("bin", "", "the wqrtq binary under test (run.sh builds and passes it)")
	name := flag.String("workload", "", "workload to run (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: plain run printing the end-to-end metrics")
	out := flag.String("out", "", "also write the results of all workloads run, as JSON, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	if *root == "" || *bin == "" {
		return errors.New("-root and -bin are required: start the harness with bench/run.sh, which builds the server and passes both")
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	specs := workloads
	if *name != "" {
		s, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		specs = []spec{s}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	outDir, err := filepath.Abs(filepath.Join(*root, "bench", "out"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if *bin, err = filepath.Abs(*bin); err != nil {
		return err
	}

	cfg := runConfig{bin: *bin, outDir: outDir, seed: *seed, seconds: *seconds, trace: *trace != 0, log: os.Stderr}
	results := resultFile{Seed: *seed, Trace: cfg.trace, Workloads: map[string]report{}}
	incorrect := false
	for _, s := range specs {
		rep, err := runWorkload(ctx, cfg, s)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		results.Workloads[s.Name] = rep
		incorrect = incorrect || !rep.Correct
		// The last line of a one-workload run is its result.
		if err := rep.writeLine(os.Stdout); err != nil {
			return err
		}
	}
	if *out != "" {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}
