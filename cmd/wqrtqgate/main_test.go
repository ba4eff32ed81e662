package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGateModuleClean is the CI invariant: every //wqrtq:contract in the
// module holds against the compiler's actual diagnostic stream.
func TestGateModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the module with gc diagnostics")
	}
	res, err := runGate("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("runGate: %v", err)
	}
	if len(res.Contracts) == 0 {
		t.Fatal("no contracts collected — the noalloc kernel contracts are gone")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
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
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
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
	// stream; the rest allocate because a value escapes, which gc reports.
	write("alloc.go", `package gatetest

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
	if got, want := len(res.Contracts), 17; got != want {
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
