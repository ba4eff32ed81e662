// Package lockhold forbids blocking operations — channel sends/receives,
// select, sync.WaitGroup.Wait, time.Sleep, and I/O package calls — while
// an engine mutex is held. The serving engine's liveness argument
// (compute-slot progress, cancellation, snapshot publication) rests
// on those critical sections being short and non-blocking; the -race
// hammers exercise it at runtime, this analyzer enforces it at vet time.
//
// The check is a conservative linear scan over each function body: a
// critical section opens at a sync.Mutex/RWMutex Lock/RLock call and
// closes at the matching Unlock/RUnlock statement; a deferred unlock holds
// the rest of the function. Branch bodies are scanned with a copy of the
// held set. Closure bodies are skipped (they execute on other goroutines
// or after unlock); sync.Cond.Wait is allowed because it must be called
// with its lock held.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"wqrtq/internal/analysis"
)

// LockedPackages are the packages whose mutexes guard the serving path.
var LockedPackages = map[string]bool{
	"wqrtq":                 true,
	"wqrtq/internal/engine": true,
}

// ioPackages are packages whose calls block on the outside world.
var ioPackages = map[string]bool{
	"net":      true,
	"net/http": true,
	"os":       true,
	"io":       true,
	"bufio":    true,
}

var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "report channel operations, select, WaitGroup.Wait, time.Sleep, and I/O calls made " +
		"while holding an engine mutex",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !LockedPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{pass: pass, fn: fn}
			c.block(fn.Body, map[string]bool{})
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	fn   *ast.FuncDecl
}

// block scans a statement list in order, tracking which mutexes are held.
// held maps types.ExprString of the mutex expression to true.
func (c *checker) block(b *ast.BlockStmt, held map[string]bool) {
	for _, stmt := range b.List {
		c.stmt(stmt, held)
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held { //wqrtq:unordered set copy
		out[k] = v
	}
	return out
}

func (c *checker) stmt(stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, op, ok := mutexOp(c.pass.TypesInfo, s.X); ok {
			switch op {
			case "Lock", "RLock":
				held[key] = true
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return
		}
		c.scan(s, held)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the section open to function end;
		// nothing to do — the key simply stays in held. Other deferred
		// work runs at return, outside this linear scan.
	case *ast.GoStmt:
		// Runs on another goroutine; it does not hold our locks.
	case *ast.BlockStmt:
		c.block(s, held)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.scan(s.Cond, held)
		c.block(s.Body, copyHeld(held))
		if s.Else != nil {
			c.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Cond != nil {
			c.scan(s.Cond, held)
		}
		c.block(s.Body, copyHeld(held))
	case *ast.RangeStmt:
		c.scan(s.X, held)
		c.block(s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Tag != nil {
			c.scan(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, st := range clause.Body {
					c.stmt(st, h)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if clause, ok := cc.(*ast.CaseClause); ok {
				h := copyHeld(held)
				for _, st := range clause.Body {
					c.stmt(st, h)
				}
			}
		}
	case *ast.SelectStmt:
		if len(held) > 0 {
			c.pass.Reportf(s.Pos(), "select while holding %s in %s", heldNames(held), c.fn.Name.Name)
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held)
	default:
		c.scan(stmt, held)
	}
}

// scan reports blocking constructs anywhere in the node, skipping closure
// bodies. It is applied to statements and expressions evaluated while at
// least one mutex may be held; with an empty held set it is a no-op.
func (c *checker) scan(node ast.Node, held map[string]bool) {
	if len(held) == 0 || node == nil {
		return
	}
	who := heldNames(held)
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			c.pass.Reportf(n.Pos(), "channel send while holding %s in %s", who, c.fn.Name.Name)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.pass.Reportf(n.Pos(), "channel receive while holding %s in %s", who, c.fn.Name.Name)
			}
		case *ast.SelectStmt:
			c.pass.Reportf(n.Pos(), "select while holding %s in %s", who, c.fn.Name.Name)
			return false
		case *ast.CallExpr:
			c.call(n, who)
		}
		return true
	})
}

func (c *checker) call(call *ast.CallExpr, who string) {
	f := analysis.FuncFor(c.pass.TypesInfo, call.Fun)
	if f == nil {
		return
	}
	path, name := analysis.PkgPathOf(f), f.Name()
	switch {
	case path == "sync" && name == "Wait" && recvNamed(f) == "WaitGroup":
		c.pass.Reportf(call.Pos(), "WaitGroup.Wait while holding %s in %s", who, c.fn.Name.Name)
	case path == "time" && name == "Sleep":
		c.pass.Reportf(call.Pos(), "time.Sleep while holding %s in %s", who, c.fn.Name.Name)
	case ioPackages[path]:
		c.pass.Reportf(call.Pos(), "%s.%s call (I/O) while holding %s in %s", path, name, who, c.fn.Name.Name)
	}
}

// recvNamed returns the name of the method's receiver type, dereferenced.
func recvNamed(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// mutexOp classifies a call as a Lock/Unlock-family operation on a
// sync.Mutex or sync.RWMutex (including ones promoted through embedding)
// and returns the held-set key for the mutex expression.
func mutexOp(info *types.Info, e ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	f := analysis.FuncFor(info, call.Fun)
	if f == nil || analysis.PkgPathOf(f) != "sync" {
		return "", "", false
	}
	switch f.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	r := recvNamed(f)
	if r != "Mutex" && r != "RWMutex" {
		return "", "", false
	}
	return types.ExprString(sel.X), f.Name(), true
}

func heldNames(held map[string]bool) string {
	// Deterministic smallest-key pick keeps messages stable without
	// sorting every name into them.
	best := ""
	for k := range held { //wqrtq:unordered deterministic min-pick
		if best == "" || k < best {
			best = k
		}
	}
	if len(held) > 1 {
		return best + " (and others)"
	}
	return best
}
