package contract

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wqrtq/internal/analysis/load"
)

func TestParseClauses(t *testing.T) {
	var c Contract
	if err := parseClauses("noescape(c,wb) inline nobce noalloc", &c); err != nil {
		t.Fatalf("parseClauses: %v", err)
	}
	if !c.Inline || !c.NoBCE || !c.NoAlloc {
		t.Errorf("clauses = %+v, want all boolean clauses set", c)
	}
	if len(c.NoEscape) != 2 || c.NoEscape[0] != "c" || c.NoEscape[1] != "wb" {
		t.Errorf("NoEscape = %v, want [c wb]", c.NoEscape)
	}
	for _, bad := range []string{"", "fast", "noescape()", "noescape(a,)", "nobce extra(x)"} {
		var c Contract
		if err := parseClauses(bad, &c); err == nil {
			t.Errorf("parseClauses(%q) accepted an invalid contract", bad)
		}
	}
}

// collectSrc writes src as package p of a GOPATH-style tree, type-checks
// it and collects its contracts relative to the tree root.
func collectSrc(t *testing.T, src string) ([]Contract, error) {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "p"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "p", "p.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Dir(root, "p")
	if err != nil {
		t.Fatalf("loading p: %v", err)
	}
	return Collect(root, pkgs)
}

func TestCollect(t *testing.T) {
	cs, err := collectSrc(t, `package p

// Plain is contracted.
//
//wqrtq:contract inline noescape(a)
func Plain(a []int, _ int) int { return len(a) }

// Method is contracted through a pointer receiver.
//
//wqrtq:contract nobce noalloc
func (m *M) Method(i int) int {
	return m.xs[i]
}

type M struct{ xs []int }

// Unannotated carries no contract.
func Unannotated() {}

// Grows breaks noalloc four ways gc reports no heap fact for, and adds
// integers, which allocates nothing.
//
//wqrtq:contract noalloc
func Grows(xs []int, s string, n int) ([]int, string) {
	xs = append(xs, n+1)
	s += "x" + s + s
	go Unannotated()
	return xs, string([]rune(s))
}
`)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(cs) != 3 {
		t.Fatalf("collected %d contracts, want 3: %+v", len(cs), cs)
	}
	plain, meth, grows := cs[0], cs[1], cs[2]
	if plain.Func != "Plain" || plain.File != "p/p.go" || !plain.Inline {
		t.Errorf("Plain = %+v", plain)
	}
	if len(plain.Params) != 1 || plain.Params[0] != "a" {
		t.Errorf("Plain params = %v, want [a] (blanks skipped)", plain.Params)
	}
	if meth.Func != "(*M).Method" || !meth.NoBCE || !meth.NoAlloc || len(meth.Allocs) != 0 {
		t.Errorf("Method = %+v, want (*M).Method with nobce+noalloc and no allocation sites", meth)
	}
	if meth.StartLine >= meth.EndLine {
		t.Errorf("Method range [%d,%d] must span the body", meth.StartLine, meth.EndLine)
	}
	if len(meth.Params) != 2 || meth.Params[0] != "m" || meth.Params[1] != "i" {
		t.Errorf("Method params = %v, want receiver first", meth.Params)
	}
	// append; += and the concatenation on its right-hand side (one site for
	// the chain); go; and the two conversions of the return line, which are
	// one site because they share a line and a reason.
	var lines []int
	for _, a := range grows.Allocs {
		lines = append(lines, a.Line-grows.StartLine)
	}
	if want := []int{1, 2, 2, 3, 4}; !reflect.DeepEqual(lines, want) {
		t.Errorf("Grows allocation sites at body lines %v, want %v: %+v", lines, want, grows.Allocs)
	}
}

func TestCollectRejectsGenerics(t *testing.T) {
	_, err := collectSrc(t, `package p

//wqrtq:contract inline
func G[T any](x T) T { return x }
`)
	if err == nil || !strings.Contains(err.Error(), "generic") {
		t.Errorf("Collect on a generic contract: err = %v, want generic rejection", err)
	}
}

func TestCheck(t *testing.T) {
	facts := parse(t, strings.Join([]string{
		"p.go:10:6: can inline Good with cost 10 as: func() int { return 0 }",
		"p.go:10:12: a does not escape",
		"p.go:20:6: cannot inline Slow: function too complex: cost 200 exceeds budget 80",
		"p.go:22:9: Found IsInBounds",
		"p.go:23:10: make([]int, n) escapes to heap:",
		"p.go:30:6: cannot inline Leaky: recursive",
		"p.go:30:15: leaking param: b",
		"", // trailing newline
	}, "\n"))
	mk := func(fn string, start, end int, mut func(*Contract)) Contract {
		c := Contract{Func: fn, File: "p.go", StartLine: start, EndLine: end, Params: []string{"a", "b"}}
		mut(&c)
		return c
	}
	cases := []struct {
		name  string
		c     Contract
		kinds []string
	}{
		{"clean", mk("Good", 10, 12, func(c *Contract) { c.Inline, c.NoBCE, c.NoAlloc, c.NoEscape = true, true, true, []string{"a"} }), nil},
		{"inline lost", mk("Slow", 20, 25, func(c *Contract) { c.Inline = true }), []string{"inline"}},
		{"bce and alloc", mk("Slow", 20, 25, func(c *Contract) { c.NoBCE, c.NoAlloc = true, true }), []string{"nobce", "noalloc"}},
		{"param leak", mk("Leaky", 30, 33, func(c *Contract) { c.NoEscape = []string{"b"} }), []string{"noescape"}},
		{"stale function", mk("Gone", 40, 45, func(c *Contract) { c.NoBCE = true }), []string{"stale"}},
		{"stale param", mk("Good", 10, 12, func(c *Contract) { c.NoEscape = []string{"zz"} }), []string{"stale"}},
		{"no verdict param", mk("Good", 10, 12, func(c *Contract) { c.NoEscape = []string{"b"} }), []string{"stale"}},
		{"out of range facts ignored", mk("Good", 10, 12, func(c *Contract) { c.NoBCE, c.NoAlloc = true, true }), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := Check([]Contract{tc.c}, facts)
			var kinds []string
			for _, v := range vs {
				kinds = append(kinds, v.Kind)
			}
			if len(kinds) != len(tc.kinds) {
				t.Fatalf("violations = %v, want kinds %v", vs, tc.kinds)
			}
			for i, k := range tc.kinds {
				if kinds[i] != k {
					t.Errorf("violation %d kind = %s, want %s (%v)", i, kinds[i], k, vs)
				}
			}
		})
	}
}
