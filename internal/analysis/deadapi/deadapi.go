// Package deadapi is cmd/wqrtqgate's dead-API pass (DESIGN.md §12): every
// exported identifier under internal/ needs a non-test use from live code,
// and every exported field of a struct named Options, Config or
// EngineConfig a non-test setter outside its own package, or a
// `<pkg>.<[Recv.]Name> oracle|testhook|bench <note>` line in the module's
// deadapi.allow that covers a finding.
//
// Live code is what the non-test code outside internal/ reaches through
// the package-level declarations each refers to, so a chain of dead
// identifiers, or a dead type that only its own constructor names, is
// reported whole in one run. A type reaches its methods that implement an
// interface (those may be called dynamically), init functions and blank
// package-level variables are reached always, and an allowlisted
// identifier is reached too: what it uses is kept with it.
package deadapi

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"wqrtq/internal/analysis/load"
)

// AllowFile is the allowlist's name at the module root.
const AllowFile = "deadapi.allow"

// Violation is one unused identifier or one bad allowlist entry.
type Violation struct {
	File      string
	Line      int
	Name, Msg string // Name is the allowlist key, e.g. "rtree.Tree.Search"
}

func (v Violation) String() string {
	return fmt.Sprintf("%s:%d: %s: dead API: %s", v.File, v.Line, v.Name, v.Msg)
}

// Check runs the pass over the module's non-test packages.
func Check(moduleDir string, pkgs []*load.Package) ([]Violation, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	mod := ""
	for _, p := range pkgs {
		if i := strings.Index(p.Path+"/", "/internal/"); i >= 0 && (mod == "" || i < len(mod)) {
			mod = p.Path[:i]
		}
	}
	// prefix is a package's allowlist prefix, or "" when it is not checked.
	prefix := func(path string) string {
		rel, ok := strings.CutPrefix(path, mod+"/internal/")
		if path == mod || ok && rel != "analysis" && !strings.HasPrefix(rel, "analysis/") {
			return rel
		}
		return ""
	}

	allowed, out, err := readAllow(moduleDir)
	if err != nil {
		return nil, err
	}
	ifaces := interfaces(pkgs)
	refs, roots, kept := declGraph(mod, pkgs, ifaces, func(obj types.Object) bool {
		key, typ := reportKeys(obj, prefix)
		return allowed[key] > 0 || allowed[typ] > 0
	})
	live := reach(refs, roots)
	liveKept := reach(refs, append(roots, kept...))

	used := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				for _, k := range fieldSets(pkg, n, prefix) {
					used[k] = true
				}
				return true
			})
		}
	}

	covered := make(map[string]bool)
	report := func(pkg *load.Package, key, typ string, obj types.Object, msg string) {
		switch {
		case used[key] || live[declKey(obj)]:
		case allowed[key] > 0 || allowed[typ] > 0: // an entry for a type covers its members
			covered[key], covered[typ] = true, true
		case liveKept[declKey(obj)]: // used by an allowlisted identifier
		default:
			pos := pkg.Fset.Position(obj.Pos())
			file, _ := filepath.Rel(abs, pos.Filename)
			out = append(out, Violation{filepath.ToSlash(file), pos.Line, key, msg})
		}
	}
	const unused = "exported, but no live non-test code of the module uses it"
	for _, pkg := range pkgs {
		pre := prefix(pkg.Path)
		for _, n := range pkg.Types.Scope().Names() {
			obj := pkg.Types.Scope().Lookup(n)
			tn, isType := obj.(*types.TypeName)
			named, isNamed := obj.Type().(*types.Named)
			isNamed = isNamed && isType && !tn.IsAlias()
			st, isStruct := obj.Type().Underlying().(*types.Struct)
			key := pre + "." + n
			if pre != "" && isNamed && isStruct && (n == "EngineConfig" || n == "Config" || n == "Options") {
				for f := range st.Fields() {
					if f.Exported() {
						report(pkg, key+"."+f.Name(), key, f, "option field, but no non-test code outside its package sets it")
					}
				}
			}
			if pre != mod && pre != "" {
				if obj.Exported() {
					report(pkg, key, key, obj, unused)
				}
				for i := 0; isNamed && i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !implements(named, m.Name(), ifaces) {
						report(pkg, key+"."+m.Name(), key, m, unused)
					}
				}
			}
		}
	}
	for key, line := range allowed {
		if !covered[key] {
			out = append(out, Violation{AllowFile, line, key, "stale entry: no such identifier, or it has a non-test use"})
		}
	}
	slices.SortFunc(out, func(a, b Violation) int { return cmp.Or(strings.Compare(a.File, b.File), a.Line-b.Line) })
	return out, nil
}

// readAllow parses moduleDir's allowlist (a missing file is an empty one)
// into the line of each entry, and the malformed entries.
func readAllow(moduleDir string) (map[string]int, []Violation, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, AllowFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	allowed := make(map[string]int)
	var bad []Violation
	for i, line := range strings.Split(string(data), "\n") {
		f := append(strings.Fields(line), "", "", "")
		switch {
		case f[0] == "" || strings.HasPrefix(f[0], "#"):
		case f[1] != "oracle" && f[1] != "testhook" && f[1] != "bench":
			bad = append(bad, Violation{AllowFile, i + 1, f[0], fmt.Sprintf("unknown reason %q: want oracle, testhook or bench", f[1])})
		case f[1] == "oracle" && !strings.HasPrefix(f[2], "Test") && !strings.HasPrefix(f[2], "Fuzz"):
			bad = append(bad, Violation{AllowFile, i + 1, f[0], "an oracle entry names the test that compares against it"})
		default:
			allowed[f[0]] = i + 1
		}
	}
	return allowed, bad, nil
}

// objKey is the key of a package-level object or a method, built from
// (package, receiver, name) because export-data objects are not the
// source objects.
func objKey(obj types.Object, prefix func(string) string) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin() // an instance is not the declared object
		obj = fn
		if recv := fn.Signature().Recv(); recv != nil {
			named, ok := deref(recv.Type()).(*types.Named)
			if !ok {
				return ""
			}
			return prefix(obj.Pkg().Path()) + "." + named.Obj().Name() + "." + name
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return prefix(obj.Pkg().Path()) + "." + name
}

// reportKeys returns obj's allowlist key and, for a method, its receiver
// type's.
func reportKeys(obj types.Object, prefix func(string) string) (key, typ string) {
	key = objKey(obj, prefix)
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		if named, ok := deref(fn.Signature().Recv().Type()).(*types.Named); ok {
			typ = objKey(named.Obj(), prefix)
		}
	}
	return key, typ
}

// declKey is the graph key of a package-level object or a method: objKey
// with the full package path.
func declKey(obj types.Object) string {
	return objKey(obj, func(path string) string { return path })
}

// declGraph maps each package-level declaration and method of pkgs, by
// declKey, to the declarations its source refers to, and each named type
// also to its methods that implement one of ifaces. roots are the
// declarations of packages outside mod's internal/, init functions and
// blank variables; kept are the declarations isKept accepts.
func declGraph(mod string, pkgs []*load.Package, ifaces map[string][]*types.Interface, isKept func(types.Object) bool) (refs map[string][]string, roots, kept []string) {
	refs = make(map[string][]string)
	for _, pkg := range pkgs {
		outside := !strings.HasPrefix(pkg.Path, mod+"/internal/")
		def := func(id *ast.Ident, body ast.Node, root bool) {
			obj := pkg.Info.Defs[id]
			key := declKey(obj)
			if id.Name == "_" {
				key, root = pkg.Path+"._", true
			}
			switch {
			case key == "":
				return
			case outside || root:
				roots = append(roots, key)
			case isKept(obj):
				kept = append(kept, key)
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if use, ok := n.(*ast.Ident); ok {
					if k := declKey(pkg.Info.Uses[use]); k != "" {
						refs[key] = append(refs[key], k)
					}
				}
				return true
			})
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					def(fd.Name, fd, fd.Recv == nil && fd.Name.Name == "init")
					continue
				}
				for _, spec := range decl.(*ast.GenDecl).Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						def(s.Name, s, false)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							def(id, s, false)
						}
					}
				}
			}
		}
		for _, n := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for m := range named.Methods() {
					if implements(named, m.Name(), ifaces) {
						refs[declKey(tn)] = append(refs[declKey(tn)], declKey(m))
					}
				}
			}
		}
	}
	return refs, roots, kept
}

// reach returns the keys reachable from roots through refs.
func reach(refs map[string][]string, roots []string) map[string]bool {
	seen := make(map[string]bool, len(refs))
	stack := slices.Clone(roots)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		stack = append(stack, refs[k]...)
	}
	return seen
}

// fieldSets returns the keys of the struct fields that n, in pkg, writes
// on types declared outside pkg: the keys of a composite literal, or
// selector assignment targets. An option set in its own package has no
// caller.
func fieldSets(pkg *load.Package, n ast.Node, prefix func(string) string) []string {
	info := pkg.Info
	var out []string
	set := func(owner types.Type, field *ast.Ident) {
		if named, ok := deref(owner).(*types.Named); ok && named.Obj().Pkg().Path() != pkg.Path {
			out = append(out, objKey(named.Obj(), prefix)+"."+field.Name)
		}
	}
	if lit, ok := n.(*ast.CompositeLit); ok {
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					set(info.TypeOf(lit), id)
				}
			}
		}
	} else if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
				set(info.TypeOf(sel.X), sel.Sel)
			}
		}
	}
	return out
}

// interfaces returns, by method name, the non-generic interfaces declared
// in the loaded packages and everything they import.
func interfaces(pkgs []*load.Package) map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, n := range p.Scope().Names() {
			t := p.Scope().Lookup(n).Type()
			if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && !generic(t) {
				for m := range it.Methods() {
					out[m.Name()] = append(out[m.Name()], it)
				}
			}
		}
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				visit(imp)
			}
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return out
}

// implements reports whether named or a pointer to it implements an
// interface with a method called method.
func implements(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	return !generic(named) && slices.ContainsFunc(ifaces[method], func(it *types.Interface) bool {
		return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
	})
}

func generic(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
