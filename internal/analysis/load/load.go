// Package load type-checks Go packages for cmd/wqrtqgate's analyzers and
// passes without depending on golang.org/x/tools/go/packages.
//
// Two loading modes cover the gate's needs:
//
//   - Module loads packages of the enclosing module by shelling out to
//     `go list -deps -export -json`, which compiles dependencies into the
//     build cache and hands back export-data files. Imports are then
//     resolved through the compiler ("gc") importer with a lookup into
//     that file map — the same arrangement `go vet` sets up for vet tools.
//
//   - Dir loads GOPATH-style fixture trees (testdata/src/...) for the
//     analysistest harness: local packages are parsed and type-checked
//     from source recursively, while standard-library imports fall back
//     to export data obtained from one lazy `go list` call.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` in dir for the given patterns
// and returns the decoded package stream.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []*listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export-data files.
type exportImporter struct {
	imp   types.ImporterFrom
	files map[string]string // import path -> export data file
}

func newExportImporter(fset *token.FileSet, files map[string]string) *exportImporter {
	e := &exportImporter{files: files}
	e.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := e.files[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)
	return e
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.imp.Import(path)
}

// Module loads the module packages matched by patterns (e.g. "./...") from
// moduleDir. Only non-dependency matches are returned; their imports are
// resolved from export data.
func Module(moduleDir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(moduleDir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	conf := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}

	var out []*Package
	for _, p := range listed {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkg, err := typeCheckDir(fset, conf, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// typeCheckDir parses the named files of one package and type-checks them.
func typeCheckDir(fset *token.FileSet, conf *types.Config, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// dirLoader resolves imports for a GOPATH-style fixture tree: packages
// under srcdir are type-checked from source; everything else is assumed to
// be standard library and resolved from export data fetched lazily via
// `go list`.
type dirLoader struct {
	srcdir  string
	fset    *token.FileSet
	pkgs    map[string]*Package // loaded local packages by import path
	types   map[string]*types.Package
	exp     *exportImporter
	loading map[string]bool
}

func (l *dirLoader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if t, ok := l.types[path]; ok {
		return t, nil
	}
	if dir := filepath.Join(l.srcdir, filepath.FromSlash(path)); isPkgDir(dir) {
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	// Standard library: fetch export data on first use.
	if _, ok := l.exp.files[path]; !ok {
		listed, err := goList(l.srcdir, []string{path})
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				l.exp.files[p.ImportPath] = p.Export
			}
		}
	}
	return l.exp.Import(path)
}

func isPkgDir(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

func (l *dirLoader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	conf := &types.Config{Importer: l, Sizes: types.SizesFor("gc", "amd64")}
	pkg, err := typeCheckDir(l.fset, conf, path, dir, names)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.types[path] = pkg.Types
	return pkg, nil
}

// Dir loads the named packages from a GOPATH-style tree rooted at
// srcdir (srcdir/<importpath>/*.go), as the analysistest harness expects.
func Dir(srcdir string, paths ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	l := &dirLoader{
		srcdir:  srcdir,
		fset:    fset,
		pkgs:    make(map[string]*Package),
		types:   make(map[string]*types.Package),
		exp:     newExportImporter(fset, make(map[string]string)),
		loading: make(map[string]bool),
	}
	var out []*Package
	for _, path := range paths {
		dir := filepath.Join(srcdir, filepath.FromSlash(path))
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
