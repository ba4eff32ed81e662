package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wqrtq/internal/analysis/deadapi"
)

// writeModule returns a throwaway directory and a function writing one
// file of a module rooted there.
func writeModule(t *testing.T) (string, func(name, content string)) {
	dir := t.TempDir()
	return dir, func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGateModuleClean is the CI invariant: no invariant analyzer reports
// anything in the module, every //wqrtq:contract holds against the
// compiler's actual diagnostic stream, and every exported identifier under
// internal/ has a non-test caller or one of at most 20 allowlist entries.
func TestGateModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module with gc diagnostics")
	}
	res, err := runGate("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("runGate: %v", err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	if len(res.Contracts) == 0 {
		t.Fatal("no contracts collected — the noalloc kernel contracts are gone")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	for _, v := range res.Dead {
		t.Errorf("%s", v)
	}
	f, err := os.Open(filepath.Join("../..", deadapi.AllowFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			entries++
		}
	}
	if entries > 20 {
		t.Errorf("%s has %d entries, want at most 20", deadapi.AllowFile, entries)
	}
}

// TestSeededDeadAPICaught seeds a throwaway module with one case per rule
// of the dead-API pass and checks each is reported, or not, as the rule
// says: an unused exported func, a method only a standard-library
// interface calls, a method nothing calls, an identifier only a test uses,
// an allowlisted oracle and the exported helper only it uses, a used
// identifier, a dead chain (a func only a dead func calls, a type only its
// dead constructor and a dead type's field name), a root option field set
// only in its own package, an internal option field set outside its
// package and one set only inside it, and allowlist entries that are stale
// or give an unknown reason.
func TestSeededDeadAPICaught(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a throwaway module with gc diagnostics")
	}
	dir, write := writeModule(t)
	write("go.mod", "module gatetest\n\ngo 1.24\n")
	write("internal/lib/lib.go", `package lib

// Unused has no caller at all.
func Unused() {}

// Mystery has no caller; its allowlist entry gives an unknown reason.
func Mystery() {}

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 1 }

// Oracle is called only from lib_test.go, and allowlisted.
func Oracle() int { return OracleHelper() }

// OracleHelper is called only by Oracle.
func OracleHelper() int { return 2 }

// Chain heads a dead chain: nothing calls it.
func Chain() int { return Link() }

// Link is called only by Chain.
func Link() int { return 4 }

// Ghost is named only by its dead constructor and a dead type's field.
type Ghost struct{}

// NewGhost has no caller.
func NewGhost() *Ghost { return &Ghost{} }

type ghostFile struct{ g *Ghost }

// Used is called by the command.
func Used() int { return helper() }

func helper() int { return 3 }

// Kind is printed by the command: fmt calls String through fmt.Stringer.
type Kind int

func (k Kind) String() string { return "kind" }

// Extra serves no interface and has no caller.
func (k Kind) Extra() {}
`)
	write("internal/lib/lib_test.go", `package lib

import "testing"

func TestOracle(t *testing.T) {
	if TestOnly() != 1 || Oracle() != 2 {
		t.Fatal()
	}
}
`)
	write("options.go", `package gatetest

// Options has one field a caller sets and one only its own package does.
type Options struct{ Set, Unset int }

// Resolve fills in the defaults.
func Resolve(o Options) Options {
	o.Unset = 1
	return o
}
`)
	write("internal/lib/options.go", `package lib

// Options has one field the command sets and one only this package does.
type Options struct{ Outside, Inside int }

// Fill fills in the defaults.
func Fill(o Options) Options {
	o.Inside = 1
	return o
}
`)
	write("cmd/app/main.go", `package main

import (
	"fmt"

	"gatetest"
	"gatetest/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Kind(1), gatetest.Resolve(gatetest.Options{Set: 2}), lib.Fill(lib.Options{Outside: 3}))
}
`)
	write(deadapi.AllowFile, `# seeded allowlist
lib.Oracle  oracle   TestOracle
lib.Gone    testhook no such identifier
lib.Used    bench    has a caller
lib.Mystery mystery  not a reason
`)
	res, err := runGate(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("runGate: %v", err)
	}
	got := make(map[string]string)
	for _, v := range res.Dead {
		got[v.File+" "+v.Name] = v.Msg
	}
	for _, want := range []string{
		"internal/lib/lib.go lib.Unused",
		"internal/lib/lib.go lib.Mystery",
		"internal/lib/lib.go lib.TestOnly",
		"internal/lib/lib.go lib.Kind.Extra",
		"internal/lib/lib.go lib.Chain",
		"internal/lib/lib.go lib.Link",
		"internal/lib/lib.go lib.Ghost",
		"internal/lib/lib.go lib.NewGhost",
		"options.go gatetest.Options.Unset",
		"internal/lib/options.go lib.Options.Inside",
		deadapi.AllowFile + " lib.Gone",
		deadapi.AllowFile + " lib.Used",
		deadapi.AllowFile + " lib.Mystery",
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("seeded finding %q not reported", want)
		}
		delete(got, want)
	}
	for k, msg := range got {
		t.Errorf("false positive %s: %s", k, msg)
	}
}

// TestSeededContractViolationsCaught seeds one violation per contract kind
// (escape, inline loss, BCE loss, stale contract) and one noalloc violation
// per allocation class into a throwaway module and checks the gate catches
// each, while fully contracted clean functions produce none. This is the
// end-to-end proof the gate detects regressions — not just that the parser
// reads canned streams.
func TestSeededContractViolationsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a throwaway module with gc diagnostics")
	}
	dir, write := writeModule(t)
	write("go.mod", "module gatetest\n\ngo 1.24\n")
	write("seed.go", `package gatetest

var sink []int

// Escape stores p in a global, so p leaks to the heap.
//
//wqrtq:contract noescape(p)
func Escape(p []int) {
	sink = p
}

// NoInline is recursive, which the inliner always refuses.
//
//wqrtq:contract inline
func NoInline(n int) int {
	if n <= 0 {
		return 0
	}
	return n + NoInline(n-1)
}

// BCE indexes with an unprovable index, so a bounds check survives.
//
//wqrtq:contract nobce
func BCE(xs []int, i int) int {
	return xs[i]
}

// Stale names a parameter that does not exist.
//
//wqrtq:contract noescape(q)
func Stale(p []int) int {
	return len(p)
}

// Clean holds every clause: inlinable, allocation-free, check-free, and p
// only read.
//
//wqrtq:contract inline nobce noalloc noescape(p)
func Clean(p []int) int {
	if len(p) == 0 {
		return 0
	}
	return p[0]
}
`)
	// One noalloc function per allocation class. Grow, Launch, Concat,
	// ConcatAssign and ToBytes allocate without any heap fact in gc's
	// stream; the rest allocate because a value escapes, which gc reports,
	// CloneKey inside an inlined callee.
	write("alloc.go", `package gatetest

import "strings"

type T struct{ a, b int }

//wqrtq:contract noalloc
func Grow(xs []int, x int) []int {
	return append(xs, x)
}

//wqrtq:contract noalloc
func Launch(f func()) {
	go f()
}

//wqrtq:contract noalloc
func Concat(a, b string) int {
	return len(a + b)
}

//wqrtq:contract noalloc
func ConcatAssign(a, b string) int {
	a += b
	return len(a)
}

//wqrtq:contract noalloc
func ToBytes(s string) byte {
	b := []byte(s)
	b[0]++
	return b[0]
}

//wqrtq:contract noalloc
func Make(n int) []int {
	return make([]int, n)
}

//wqrtq:contract noalloc
func New() *T {
	return new(T)
}

//wqrtq:contract noalloc
func AddrLit() *T {
	return &T{1, 2}
}

//wqrtq:contract noalloc
func SliceLit(n int) []int {
	return []int{n, n}
}

//wqrtq:contract noalloc
func Closure(n int) func() int {
	return func() int { return n }
}

var boxed any

//wqrtq:contract noalloc
func Box(n int) {
	boxed = n
}

var keys map[string]int

// CloneKey allocates inside an inlined standard-library callee, which gc
// reports at the call's line.
//
//wqrtq:contract noalloc
func CloneKey(k string) int {
	return keys[strings.Clone(k)]
}

// StackOnly uses every construct that allocates only when it escapes —
// make, new, literals, a closure, boxing — and keeps each on the stack, so
// it holds its contract.
//
//wqrtq:contract noalloc
func StackOnly(n int) int {
	buf := make([]int, 4)
	p := new(T)
	lit := []int{n, 1}
	f := func(i int) int { return buf[i] + lit[i] + p.a }
	var i any = n
	if _, ok := i.(string); ok {
		return 0
	}
	return f(1) + n
}
`)
	res, err := runGate(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("runGate: %v", err)
	}
	if got, want := len(res.Contracts), 18; got != want {
		t.Fatalf("collected %d contracts, want %d", got, want)
	}
	byFunc := make(map[string][]string)
	for _, v := range res.Violations {
		byFunc[v.Func] = append(byFunc[v.Func], v.Kind)
		if v.Func == "Clean" || v.Func == "StackOnly" {
			t.Errorf("false positive on %s: %s", v.Func, v)
		}
	}
	for fn, kind := range map[string]string{
		"Escape":       "noescape",
		"NoInline":     "inline",
		"BCE":          "nobce",
		"Stale":        "stale",
		"Grow":         "noalloc",
		"Launch":       "noalloc",
		"Concat":       "noalloc",
		"ConcatAssign": "noalloc",
		"ToBytes":      "noalloc",
		"Make":         "noalloc",
		"New":          "noalloc",
		"AddrLit":      "noalloc",
		"SliceLit":     "noalloc",
		"Closure":      "noalloc",
		"Box":          "noalloc",
		"CloneKey":     "noalloc",
	} {
		found := false
		for _, k := range byFunc[fn] {
			found = found || k == kind
		}
		if !found {
			t.Errorf("seeded %s violation in %s not caught; %s violations: %v", kind, fn, fn, byFunc[fn])
		}
	}
}

// TestSeededViolationsCaught seeds one violation per invariant analyzer
// into a throwaway module at the real gated import paths and checks the
// gate reports every analyzer. This is the end-to-end proof that the suite
// as wired into the gate catches regressions, not just that each analyzer
// passes its own fixtures.
func TestSeededViolationsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a throwaway module with gc diagnostics")
	}
	dir, write := writeModule(t)
	write("go.mod", "module wqrtq\n\ngo 1.24\n")
	// ctxloop, maprange, snapshotmut: all gate on (or ignore
	// gating) at wqrtq/internal/topk.
	write("internal/rtree/rtree.go", `package rtree

type Node struct {
	Scores []float64
}
`)
	write("internal/topk/bad.go", `package topk

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
`)
	// lockhold gates on wqrtq/internal/engine.
	write("internal/engine/bad.go", `package engine

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
	res, err := runGate(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("runGate: %v", err)
	}
	caught := make(map[string]int)
	for _, f := range res.Findings {
		caught[f.Analyzer]++
	}
	for _, a := range analyzers {
		if caught[a.Name] == 0 {
			t.Errorf("seeded violation for %s was not caught; findings: %v", a.Name, res.Findings)
		}
	}
}
