package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The annotation grammar (DESIGN.md §11). Directives are ordinary Go
// directive comments — `//wqrtq:<name>` with no space after the slashes —
// so gofmt keeps them attached and go/ast excludes them from doc text.
const (
	// DirUnordered allowlists one map-range statement whose iteration
	// order provably cannot reach a response or a score (checked by
	// maprange). Goes on the `for ... range` line or the line above.
	DirUnordered = "unordered"

	// DirBounded allowlists one loop in a query-path package whose trip
	// count is small and input-independent — dimension sweeps, fixed
	// retries — so it needs no cancellation check (checked by ctxloop).
	// Goes on the loop line or the line above.
	DirBounded = "bounded"

	// DirContract declares compiler-level guarantees for a function:
	// `//wqrtq:contract noescape(p,…) inline nobce noalloc`, checked by
	// cmd/wqrtqgate against the gc diagnostic stream and the function's
	// typed body (DESIGN.md §12). Goes on the function's doc comment;
	// `noalloc` is the only way to promise a function does not allocate.
	DirContract = "contract"

	// DirMutates allowlists one statement (or function) that writes
	// through a snapshot-reachable type outside its builder package
	// (checked by snapshotmut). A rationale is mandatory:
	// `//wqrtq:mutates <why this write cannot be observed by a reader>`.
	DirMutates = "mutates"
)

const directivePrefix = "//wqrtq:"

// Directives indexes every //wqrtq: directive comment in a package by file
// and line so analyzers can answer "is this node annotated?" without
// re-walking comment lists. Statement-level directives may sit at the end
// of the statement's first line or alone on the line immediately above it —
// the same two placements gofmt preserves.
type Directives struct {
	fset *token.FileSet
	// byLine maps file name -> line -> directives on that line.
	byLine map[string]map[int][]lineDirective
}

// lineDirective is one parsed //wqrtq: comment: its name and the trailing
// free-text argument (a rationale, or the contract clause list).
type lineDirective struct {
	name string
	arg  string
}

// NewDirectives scans the files' comments for //wqrtq: directives.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: make(map[string]map[int][]lineDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg, ok := ParseDirectiveArg(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]lineDirective)
					d.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], lineDirective{name: name, arg: arg})
			}
		}
	}
	return d
}

// ParseDirectiveArg splits a //wqrtq: directive comment into its name and
// the trailing argument text (trimmed; empty when the directive stands
// alone). The argument carries free-text rationales
// ("//wqrtq:unordered summing ints") and structured payloads
// ("//wqrtq:contract noescape(c,wb) nobce").
func ParseDirectiveArg(text string) (name, arg string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, arg = rest[:i], strings.TrimSpace(rest[i:])
	} else {
		name = rest
	}
	return name, arg, name != ""
}

// At reports whether directive name is present on the line where node
// starts, or on the line immediately above it.
func (d *Directives) At(node ast.Node, name string) bool {
	_, ok := d.AtArg(node, name)
	return ok
}

// AtArg is At returning the directive's trailing argument text as well
// (empty when the directive stands alone).
func (d *Directives) AtArg(node ast.Node, name string) (arg string, found bool) {
	pos := d.fset.Position(node.Pos())
	lines := d.byLine[pos.Filename]
	if lines == nil {
		return "", false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, ld := range lines[l] {
			if ld.name == name {
				return ld.arg, true
			}
		}
	}
	return "", false
}

// HasFuncDirective reports whether fn's doc comment carries the named
// directive. Directive comments are part of the doc comment group but are
// excluded from Doc.Text(), so we scan the raw list.
func HasFuncDirective(fn *ast.FuncDecl, name string) bool {
	_, ok := FuncDirectiveArg(fn, name)
	return ok
}

// FuncDirectiveArg is HasFuncDirective returning the directive's trailing
// argument text as well (empty when the directive stands alone).
func FuncDirectiveArg(fn *ast.FuncDecl, name string) (arg string, found bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if n, a, ok := ParseDirectiveArg(c.Text); ok && n == name {
			return a, true
		}
	}
	return "", false
}
