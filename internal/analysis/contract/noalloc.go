// noalloc.go finds the allocations a noalloc contract forbids that gc's
// escape analysis never reports as heap facts. Measured under go1.24
// -gcflags=-m=2 (DESIGN.md §12):
//
//   - `append(xs, x)` reports only where the slice header flows ("leaking
//     param: xs to result ~r0"), yet grows through runtime.growslice;
//   - a go statement allocates the goroutine whatever its closure does;
//   - a non-escaping `a + b` on strings reports "does not escape", yet
//     allocates once the result outgrows gc's 32-byte stack buffer, and
//     `s += t` reports nothing at all and allocates on every call;
//   - a conversion between string and []byte or []rune copies unless gc
//     proves the copy unnecessary, and a noalloc promise must not rest on
//     that proof.
//
// make, new, composite literals, closures and interface boxing are not
// listed: they allocate only when they escape, and then gc reports them as
// "escapes to heap", which the contract checker already fails.
package contract

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Site is one allocating construct in a noalloc function's body.
type Site struct {
	Line int
	What string
}

// allocSites returns, in source order, the constructs in fn's body that
// can allocate without a heap fact in the diagnostic stream. Closure bodies
// are included: they lie in the declaration's line range, where every other
// noalloc fact is attributed too.
func allocSites(fset *token.FileSet, info *types.Info, fn *ast.FuncDecl) []Site {
	var out []Site
	add := func(n ast.Node, what string) {
		line := fset.Position(n.Pos()).Line
		if k := len(out); k > 0 && out[k-1] == (Site{line, what}) {
			return // one site per line and reason: `a + b + c` is one concatenation
		}
		out = append(out, Site{line, what})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			add(n, "go statement allocates a goroutine")
		case *ast.BinaryExpr:
			if tv := info.Types[n]; n.Op == token.ADD && tv.Value == nil && isString(tv.Type) {
				add(n, "string concatenation allocates past gc's 32-byte stack buffer")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && isString(info.TypeOf(n.Lhs[0])) {
				add(n, "string += allocates on every call, and gc reports nothing for it")
			}
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					add(n, "append may grow its backing array through runtime.growslice")
				}
			}
			if tv := info.Types[fun]; tv.IsType() && len(n.Args) == 1 {
				to, from := tv.Type, info.TypeOf(n.Args[0])
				if isString(to) && isByteOrRuneSlice(from) || isByteOrRuneSlice(to) && isString(from) {
					add(n, "conversion between string and a byte or rune slice copies")
				}
			}
		}
		return true
	})
	return out
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}
