package main

import (
	"os"
	"path/filepath"
	"testing"

	"wqrtq/internal/analysis"
	"wqrtq/internal/analysis/load"
	"wqrtq/internal/analysis/suite"
)

// TestModuleClean is the CI invariant: the whole module passes the suite
// with zero findings. Any new violation on a gated path fails this test
// before it fails the vet job.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module's export data")
	}
	pkgs, err := load.Module("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, pkg := range pkgs {
		for _, a := range suite.All() {
			name := a.Name
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					t.Errorf("%s: %s: %s", name, pkg.Fset.Position(d.Pos), d.Message)
				},
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
}

// TestSeededViolationsCaught seeds one violation per analyzer into a
// throwaway GOPATH-style tree using the real gated import paths and checks
// every analyzer fires. This is the end-to-end proof that the suite as
// wired into cmd/wqrtqlint catches regressions, not just that each
// analyzer passes its own fixtures.
func TestSeededViolationsCaught(t *testing.T) {
	srcdir := filepath.Join(t.TempDir(), "src")
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(srcdir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}

	// ctxloop, maprange, floateq, snapshotmut: all gate on (or ignore
	// gating) at wqrtq/internal/topk. Allocation seeds live with the gate
	// (cmd/wqrtqgate), which owns the noalloc promise.
	write("wqrtq/internal/rtree/rtree.go", `package rtree

type Node struct {
	Scores []float64
}
`)
	write("wqrtq/internal/topk/bad.go", `package topk

import (
	"context"

	"wqrtq/internal/rtree"
)

func Clobber(n *rtree.Node) {
	n.Scores[0] = 0
}

func work(x int) int { return x + 1 }

func Unchecked(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs {
		s += work(x)
	}
	return s
}

func Assemble(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

func Tie(a, b float64) bool { return a == b }
`)
	// lockhold gates on wqrtq/internal/engine.
	write("wqrtq/internal/engine/bad.go", `package engine

import "sync"

type E struct {
	mu sync.Mutex
	ch chan int
}

func (e *E) Send(v int) {
	e.mu.Lock()
	e.ch <- v
	e.mu.Unlock()
}
`)

	pkgs, err := load.Dir(srcdir, "wqrtq/internal/topk", "wqrtq/internal/engine")
	if err != nil {
		t.Fatalf("loading seeded tree: %v", err)
	}
	caught := make(map[string]int)
	for _, pkg := range pkgs {
		for _, a := range suite.All() {
			name := a.Name
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(analysis.Diagnostic) { caught[name]++ },
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range suite.All() {
		if caught[a.Name] == 0 {
			t.Errorf("seeded violation for %s was not caught", a.Name)
		}
	}
}
