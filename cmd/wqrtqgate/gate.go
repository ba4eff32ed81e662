package main

import (
	"bytes"
	"cmp"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"

	"wqrtq/internal/analysis"
	"wqrtq/internal/analysis/contract"
	"wqrtq/internal/analysis/ctxloop"
	"wqrtq/internal/analysis/deadapi"
	"wqrtq/internal/analysis/load"
	"wqrtq/internal/analysis/lockhold"
	"wqrtq/internal/analysis/maprange"
	"wqrtq/internal/analysis/snapshotmut"
)

// analyzers is the invariant suite (DESIGN.md §11), run over every loaded
// package.
var analyzers = []*analysis.Analyzer{
	snapshotmut.Analyzer,
	ctxloop.Analyzer,
	maprange.Analyzer,
	lockhold.Analyzer,
}

// finding is one analyzer diagnostic; File is relative to the module.
type finding struct {
	File          string
	Line, Col     int
	Analyzer, Msg string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Msg, f.Analyzer)
}

// gateResult is one gate run: the analyzer findings, the contracts found,
// the violations against them, the dead-API pass's findings, and the raw
// diagnostic stream (kept for the CI failure artifact).
type gateResult struct {
	Findings   []finding
	Contracts  []contract.Contract
	Violations []contract.Violation
	Dead       []deadapi.Violation
	Stream     []byte
}

// runGate executes the full gate pipeline over moduleDir: type-check the
// compiled file set `go list` reports, run the invariant analyzers over it,
// collect //wqrtq:contract annotations from exactly those files (so a
// build-tagged-out file drops its contracts instead of failing them), run
// the dead-API pass over the same packages, compile with gc diagnostics,
// parse the stream and check. Both compiles reuse the build cache — gc
// replays its stderr on cache hits — so a warm gate run costs roughly a
// `go list`.
func runGate(moduleDir string, patterns []string) (gateResult, error) {
	var res gateResult
	pkgs, err := load.Module(moduleDir, patterns...)
	if err != nil {
		return res, err
	}
	res.Findings, err = analyze(moduleDir, pkgs)
	if err != nil {
		return res, err
	}
	res.Contracts, err = contract.Collect(moduleDir, pkgs)
	if err != nil {
		return res, err
	}
	res.Dead, err = deadapi.Check(moduleDir, pkgs)
	if err != nil {
		return res, err
	}
	hasMain := false
	for _, p := range pkgs {
		hasMain = hasMain || p.Types.Name() == "main"
	}

	// -o <dir>/ keeps main-package binaries out of the working tree (go
	// build rejects it when the patterns hold no main package); the temp
	// dir is discarded, only the stderr stream matters.
	tmp, err := os.MkdirTemp("", "wqrtqgate")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	args := []string{"build"}
	if hasMain {
		args = append(args, "-o", tmp+string(filepath.Separator))
	}
	args = append(append(args, "-gcflags=-m=2 -d=ssa/check_bce"), patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	res.Stream = stderr.Bytes()
	if err != nil {
		return res, fmt.Errorf("go %v: %v\n%s", args, err, stderr.String())
	}

	facts, err := contract.ParseDiagnostics(bytes.NewReader(res.Stream))
	if err != nil {
		return res, fmt.Errorf("parsing diagnostic stream: %v", err)
	}
	res.Violations = contract.Check(res.Contracts, facts)
	slices.SortFunc(res.Violations, func(a, b contract.Violation) int {
		return cmp.Or(strings.Compare(a.File, b.File), a.Line-b.Line, strings.Compare(a.Kind, b.Kind))
	})
	return res, nil
}

// analyze runs every analyzer over every package and returns the findings
// in file, line, column and analyzer order.
func analyze(moduleDir string, pkgs []*load.Package) ([]finding, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	var out []finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					p := pkg.Fset.Position(d.Pos)
					file, _ := filepath.Rel(abs, p.Filename)
					out = append(out, finding{filepath.ToSlash(file), p.Line, p.Column, a.Name, d.Message})
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	slices.SortFunc(out, func(a, b finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), a.Line-b.Line, a.Col-b.Col, strings.Compare(a.Analyzer, b.Analyzer))
	})
	return out, nil
}
