// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface used by the invariant analyzers
// cmd/wqrtqgate runs. The module builds with the standard library alone,
// so rather than importing x/tools we mirror the small subset the
// analyzers need: an Analyzer is a named Run function over a type-checked
// package (a Pass), and diagnostics are (position, message) pairs reported
// through the Pass.
//
// The four analyzers under internal/analysis/... encode the invariants the
// paper's correctness argument rests on — snapshot immutability outside the
// builder packages, cooperative cancellation, deterministic iteration, and
// no blocking under the engine mutexes — as compile-time checks. Each is
// the static twin of a runtime guard (the differential suites, the -race
// hammers), and each catches a regression its twin misses; see DESIGN.md
// §11 for the audit. Allocation-freedom is not an analyzer: it is the
// `noalloc` clause of the compiler-contract gate
// (internal/analysis/contract).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer closely enough that the suite
// could be ported to the real framework by swapping imports.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be a
	// valid Go identifier.
	Name string

	// Doc is the one-paragraph help text; the first line is a summary.
	Doc string

	// Run applies the analyzer to a single package and reports diagnostics
	// via pass.Report. A non-nil error aborts the whole run (reserved for
	// analyzer bugs, not findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver supplies it.
	Report func(Diagnostic)

	dirs *Directives // lazily built directive index
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Directives returns the package's directive index, building it on first
// use.
func (p *Pass) Directives() *Directives {
	if p.dirs == nil {
		p.dirs = NewDirectives(p.Fset, p.Files)
	}
	return p.dirs
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// go vet type-checks test variants of packages; the invariants enforced
// here are production-code discipline (tests legitimately range over
// maps, block and allocate), so every analyzer skips test files through
// this helper.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// TypeOf returns the type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// FuncFor resolves the *types.Func called by e, following method values and
// selector expressions; nil for builtins, conversions, and indirect calls
// through function-typed variables.
func FuncFor(info *types.Info, e ast.Expr) *types.Func {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	}
	return nil
}

// PkgPathOf returns the import path of f's package, or "" for builtins and
// universe-scope objects.
func PkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}
