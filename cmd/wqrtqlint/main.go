// Command wqrtqlint is the wqrtq invariant suite: five analyzers enforcing
// snapshot immutability outside the builder packages, cooperative
// cancellation, deterministic iteration, centralized float comparison, and
// non-blocking critical sections (see internal/analysis/... and DESIGN.md
// §11). Allocation-freedom is checked by cmd/wqrtqgate's noalloc contracts
// (DESIGN.md §12).
//
// It runs two ways:
//
//	wqrtqlint ./...                     # standalone, from the module root
//	go vet -vettool=$(which wqrtqlint) ./...
//
// The second form speaks cmd/go's vet tool protocol: respond to -V=full
// with a content-addressed build ID (so vet's result cache invalidates
// when the tool changes), describe flags as JSON on -flags, and analyze
// one package per invocation from a JSON vet.cfg produced by the go
// command. Both forms resolve imports from compiler export data, so they
// see identical type information.
package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"

	"wqrtq/internal/analysis"
	"wqrtq/internal/analysis/load"
	"wqrtq/internal/analysis/suite"
)

func main() {
	args := os.Args[1:]
	for _, arg := range args {
		switch {
		case arg == "-V" || strings.HasPrefix(arg, "-V="):
			printVersion()
			return
		case arg == "-flags" || arg == "--flags":
			// No analyzer flags yet; cmd/go requires valid JSON here.
			fmt.Println("[]")
			return
		}
	}
	// Under `go vet -vettool` the final argument is a vet.cfg path.
	if len(args) >= 1 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(unitcheck(args[len(args)-1]))
	}
	os.Exit(standalone(args))
}

// printVersion implements the -V=full handshake. cmd/go requires the form
// "<tool> version devel ... buildID=<id>" and derives its cache key from
// the id, so we hash the binary itself: rebuilding wqrtqlint with changed
// analyzers invalidates previously cached vet results.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			id = fmt.Sprintf("%x", sum[:16])
		}
	}
	fmt.Printf("wqrtqlint version devel buildID=%s/%s\n", id, id)
}

// standalone loads packages through `go list -export` and analyzes them
// in-process. Exit status 2 mirrors vet: findings are not a tool failure.
func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Module(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wqrtqlint: %v\n", err)
		return 1
	}
	type finding struct {
		pos      string
		file     string
		line     int
		col      int
		analyzer string
		msg      string
	}
	var all []finding
	for _, pkg := range pkgs {
		for _, a := range suite.All() {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				all = append(all, finding{p.String(), p.Filename, p.Line, p.Column, name, d.Message})
			}
			if err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "wqrtqlint: analyzer %s failed on %s: %v\n", a.Name, pkg.Path, err)
				return 1
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.analyzer < b.analyzer
	})
	for _, f := range all {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.pos, f.msg, f.analyzer)
	}
	if len(all) > 0 {
		return 2
	}
	return 0
}
