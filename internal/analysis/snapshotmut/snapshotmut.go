// Package snapshotmut proves — type-based, per package — that nothing
// outside the builder packages writes through snapshot-reachable state.
//
// The serving discipline of this codebase is copy-on-write: a published
// snapshot (an Index epoch) is immutable, shared by every concurrent
// reader, and mutations clone before they touch anything. The types a
// reader can reach from a snapshot — R-tree nodes, skyband bands, cell
// grids, flattened kernel coordinates — are therefore writable only inside
// the package that builds them; a stray field store or append anywhere
// else is a data race against every in-flight query, whether or not the
// race detector happens to catch an interleaving.
//
// The analyzer flags, in every package other than a protected type's own:
//
//   - assignments (including op= and ++/--) whose destination is a field,
//     element or dereference reachable from a protected-typed expression;
//   - append/copy/delete builtins whose grown, copied-into or shrunk
//     operand is so reachable;
//   - the same writes through local variables that were earlier assigned a
//     protected-derived expression (one forward intra-function taint pass).
//
// Reachability is syntactic over the type information: an expression is
// protected-derived when its selector/index/call chain passes through a
// value whose (pointer-stripped) named type is in the protected set, or
// through a method call on such a value returning pointer-, slice- or
// map-shaped results. Calls are otherwise not followed — a builder-package
// method that mutates on behalf of a caller is the builder's
// responsibility, and the gate for it is the builder package's own review
// (DESIGN.md §12 records this hole explicitly).
//
// A finding is silenced by //wqrtq:mutates on the statement (or its
// function), and the directive REQUIRES a rationale: `//wqrtq:mutates`
// alone is itself an error, because an allowlist entry whose justification
// lives in a commit message is unreviewable at the call site.
package snapshotmut

import (
	"go/ast"
	"go/types"
	"strings"

	"wqrtq/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "snapshotmut",
	Doc: "report writes through snapshot-reachable types (rtree.Tree/Node, skyband.Band, " +
		"cellindex.Grid, kernel.Coords) outside their builder packages",
	Run: run,
}

// protected maps type name -> defining package (matched as the package
// path's last segment, so module fixtures and the real module both hit).
var protected = map[string]string{
	"Tree":   "rtree",
	"Node":   "rtree",
	"Band":   "skyband",
	"Grid":   "cellindex",
	"Coords": "kernel",
}

func run(pass *analysis.Pass) error {
	dirs := pass.Directives()
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{pass: pass, dirs: dirs, tainted: map[*types.Var]bool{}}
			if arg, ok := analysis.FuncDirectiveArg(fn, analysis.DirMutates); ok {
				if arg == "" {
					pass.Reportf(fn.Pos(), "//wqrtq:mutates requires a rationale")
				}
				continue
			}
			c.walk(fn.Body)
		}
	}
	return nil
}

type checker struct {
	pass    *analysis.Pass
	dirs    *analysis.Directives
	tainted map[*types.Var]bool
}

// walk visits statements in source order so the taint pass sees a local's
// defining assignment before writes through it.
func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.IncDecStmt:
			if c.derived(n.X) {
				c.report(n, n.X, "increments")
			}
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

func (c *checker) assign(n *ast.AssignStmt) {
	for _, lhs := range n.Lhs {
		// A write lands in protected storage when the destination reaches
		// through a protected value: x.f = v, x.s[i] = v, *x.p = v. A
		// plain `v := x.f` only copies — but taints v when the copy is
		// reference-shaped (slice/map/pointer), since writes through it
		// then land in the same storage.
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if c.derived(l.(ast.Expr)) {
				c.report(n, lhs, "writes through")
			}
		}
	}
	for i, lhs := range n.Lhs {
		// Each local takes its own right-hand side, or its element of a
		// multi-value call: ids, counts := band.Members().
		rhs := n.Rhs[0]
		var t types.Type
		if len(n.Lhs) == len(n.Rhs) {
			rhs = n.Rhs[i]
			t = c.pass.TypeOf(rhs)
		} else if tup, ok := c.pass.TypeOf(rhs).(*types.Tuple); ok {
			t = tup.At(i).Type()
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		if obj, ok := c.objOf(id); ok && refShaped(t) && c.derived(rhs) {
			c.tainted[obj] = true
		}
	}
}

func (c *checker) call(n *ast.CallExpr) {
	id, ok := ast.Unparen(n.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok || len(n.Args) == 0 {
		return
	}
	switch b.Name() {
	case "append", "delete":
		if c.derived(n.Args[0]) {
			c.report(n, n.Args[0], b.Name()+"s into")
		}
	case "copy":
		if c.derived(n.Args[0]) {
			c.report(n, n.Args[0], "copies into")
		}
	}
}

func (c *checker) report(stmt ast.Node, dst ast.Expr, verb string) {
	if arg, ok := c.dirs.AtArg(stmt, analysis.DirMutates); ok {
		if arg == "" {
			c.pass.Reportf(stmt.Pos(), "//wqrtq:mutates requires a rationale")
		}
		return
	}
	c.pass.Reportf(stmt.Pos(), "%s snapshot-reachable state (%s) outside its builder package",
		verb, types.ExprString(dst))
}

// derived reports whether e reaches through a protected-typed value
// defined outside this package, or through a tainted local.
func (c *checker) derived(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, ok := c.objOf(e)
		if !ok {
			return false
		}
		if c.tainted[obj] {
			return true
		}
		return c.foreignProtected(obj.Type())
	case *ast.SelectorExpr:
		if c.foreignProtected(c.pass.TypeOf(e.X)) {
			return true
		}
		return c.derived(e.X)
	case *ast.IndexExpr:
		return c.derived(e.X)
	case *ast.SliceExpr:
		return c.derived(e.X)
	case *ast.StarExpr:
		return c.derived(e.X)
	case *ast.CallExpr:
		// A method on a protected receiver returning reference-shaped
		// results hands out aliases of snapshot storage (Band.Coords,
		// Tree.Root, Coords.Col, ...).
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if !refShaped(c.pass.TypeOf(e)) {
			return false
		}
		if c.foreignProtected(c.pass.TypeOf(sel.X)) {
			return true
		}
		return c.derived(sel.X)
	}
	return false
}

func (c *checker) objOf(id *ast.Ident) (*types.Var, bool) {
	if obj, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return obj, true
	}
	obj, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	return obj, ok
}

// foreignProtected reports whether t (pointer-stripped) is a protected
// named type defined in a package other than the one under analysis.
func (c *checker) foreignProtected(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	pkgSeg, ok := protected[obj.Name()]
	if !ok || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path != pkgSeg && !strings.HasSuffix(path, "/"+pkgSeg) {
		return false
	}
	return c.pass.Pkg == nil || c.pass.Pkg.Path() != path
}

// refShaped reports whether values of t alias underlying storage when
// copied: pointers, slices and maps do; scalars, strings and structs
// copied by value do not.
func refShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if refShaped(u.At(i).Type()) {
				return true
			}
		}
	}
	return false
}
