package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"wqrtq/internal/analysis/contract"
	"wqrtq/internal/analysis/deadapi"
	"wqrtq/internal/analysis/load"
)

// gateResult is one gate run: the contracts found, the violations against
// them, the dead-API pass's findings, and the raw diagnostic stream (kept
// for the CI failure artifact).
type gateResult struct {
	Contracts  []contract.Contract
	Violations []contract.Violation
	Dead       []deadapi.Violation
	Stream     []byte
}

// runGate executes the full gate pipeline over moduleDir: type-check the
// compiled file set `go list` reports, collect //wqrtq:contract annotations
// from exactly those files (so a build-tagged-out file drops its contracts
// instead of failing them), run the dead-API pass over the same packages,
// compile with gc diagnostics, parse the stream and check. Both compiles
// reuse the build cache — gc replays its stderr on cache hits — so a warm
// gate run costs roughly a `go list`.
func runGate(moduleDir string, patterns []string) (gateResult, error) {
	var res gateResult
	pkgs, err := load.Module(moduleDir, patterns...)
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
	sort.Slice(res.Violations, func(i, j int) bool {
		a, b := res.Violations[i], res.Violations[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Kind < b.Kind
	})
	return res, nil
}
