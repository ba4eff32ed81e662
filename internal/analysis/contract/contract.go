// Package contract implements the compiler-contract gate behind
// cmd/wqrtqgate: the `//wqrtq:contract` annotation grammar, collection of
// annotated functions from type-checked source, the allocations gc does
// not report (noalloc.go), parsing of the gc diagnostic stream (gcdiag.go)
// and the checker that diffs the two (check.go).
//
// # Grammar
//
// A contract is a function doc-comment directive holding one or more
// whitespace-separated clauses:
//
//	//wqrtq:contract noescape(c,wb) inline nobce noalloc
//
//	noescape(p,…)  the named parameters (receiver included) must not leak
//	               to the heap — result-only flows are allowed
//	inline         the compiler must report the function inlinable
//	nobce          no bounds or slice-bounds check may survive in the
//	               function's declaration line range
//	noalloc        no heap allocation site ("escapes to heap", "moved to
//	               heap") may appear in the declaration line range, and
//	               the body may hold no append, go statement, string
//	               concatenation or string/slice conversion — the
//	               allocations gc does not report (noalloc.go)
//
// Contracts bind to the compiler's view of the build: a contract whose
// diagnostics cannot be found at all (function renamed, file build-tagged
// out, parameter dropped) is an error, not a silent pass, so annotations
// cannot rot (DESIGN.md §12).
package contract

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"

	"wqrtq/internal/analysis"
	"wqrtq/internal/analysis/load"
)

// Contract is one annotated function with its parsed clauses and the
// source coordinates needed to attribute position-tagged diagnostics.
type Contract struct {
	Func string // compiler-style name: "F", "T.M" or "(*T).M"
	File string // module-root-relative path with forward slashes
	// StartLine..EndLine span the whole declaration (signature through
	// closing brace). BCE and allocation facts are attributed by this
	// range: surviving checks from inlined callees report at the caller's
	// call-site line, so name-based attribution would miss them.
	StartLine, EndLine int
	NoEscape           []string // params required not to leak to the heap
	Inline             bool
	NoBCE              bool
	NoAlloc            bool
	// Allocs are the allocating constructs in a noalloc body that gc
	// reports no heap fact for (noalloc.go); each one is a violation.
	Allocs []Site
	Params []string // declared receiver+param names, for staleness
	Raw    string   // original clause text, for messages
}

// parseClauses parses the text after "//wqrtq:contract" into c's clause
// fields.
func parseClauses(text string, c *Contract) error {
	c.Raw = text
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return fmt.Errorf("empty contract: expected noescape(p,…), inline, nobce or noalloc")
	}
	for _, f := range fields {
		switch {
		case f == "inline":
			c.Inline = true
		case f == "nobce":
			c.NoBCE = true
		case f == "noalloc":
			c.NoAlloc = true
		case strings.HasPrefix(f, "noescape(") && strings.HasSuffix(f, ")"):
			inner := strings.TrimSuffix(strings.TrimPrefix(f, "noescape("), ")")
			for _, p := range strings.Split(inner, ",") {
				p = strings.TrimSpace(p)
				if p == "" {
					return fmt.Errorf("noescape clause with empty parameter name in %q", text)
				}
				c.NoEscape = append(c.NoEscape, p)
			}
		default:
			return fmt.Errorf("unknown contract clause %q in %q", f, text)
		}
	}
	return nil
}

// Collect returns every //wqrtq:contract-annotated function in the loaded
// packages, with files recorded relative to moduleDir, matching the
// positions `go build` prints when invoked there. The packages carry type
// information because noalloc reads the typed body (noalloc.go).
func Collect(moduleDir string, pkgs []*load.Package) ([]Contract, error) {
	absModule, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	var out []Contract
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			abs := pkg.Fset.Position(f.Pos()).Filename
			rel, err := filepath.Rel(absModule, abs)
			if err != nil {
				rel = abs
			}
			rel = filepath.ToSlash(rel)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				arg, ok := analysis.FuncDirectiveArg(fn, analysis.DirContract)
				if !ok {
					continue
				}
				line := pkg.Fset.Position(fn.Pos()).Line
				name, err := compilerName(fn)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", rel, line, err)
				}
				c := Contract{
					Func:      name,
					File:      rel,
					StartLine: line,
					EndLine:   pkg.Fset.Position(fn.End()).Line,
					Params:    paramNames(fn),
				}
				if err := parseClauses(arg, &c); err != nil {
					return nil, fmt.Errorf("%s:%d: %s: %w", rel, c.StartLine, name, err)
				}
				if c.NoAlloc && fn.Body != nil {
					c.Allocs = allocSites(pkg.Fset, pkg.Info, fn)
				}
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].StartLine < out[j].StartLine
	})
	return out, nil
}

// compilerName renders fn's name the way gc diagnostics print it:
// "F" for functions, "T.M" / "(*T).M" for methods.
func compilerName(fn *ast.FuncDecl) (string, error) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		if fn.Type.TypeParams != nil {
			return "", fmt.Errorf("generic function %s cannot carry a contract: gc reports shape instantiations, not source names", fn.Name.Name)
		}
		return fn.Name.Name, nil
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if st, ok := t.(*ast.StarExpr); ok {
		ptr = true
		t = st.X
	}
	switch rt := t.(type) {
	case *ast.Ident:
		if ptr {
			return "(*" + rt.Name + ")." + fn.Name.Name, nil
		}
		return rt.Name + "." + fn.Name.Name, nil
	default:
		return "", fmt.Errorf("method %s has a generic or unsupported receiver: gc reports shape instantiations, not source names", fn.Name.Name)
	}
}

// paramNames collects the declared receiver and parameter names
// (skipping blanks and unnamed parameters).
func paramNames(fn *ast.FuncDecl) []string {
	var out []string
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if n.Name != "_" {
					out = append(out, n.Name)
				}
			}
		}
	}
	add(fn.Recv)
	add(fn.Type.Params)
	return out
}
