// check.go diffs collected contracts against the parsed diagnostic stream.
package contract

import "fmt"

// Violation is one broken or stale contract clause, positioned at the
// offending diagnostic (violations) or the contract's declaration
// (staleness).
type Violation struct {
	File string
	Line int
	Func string
	Kind string // "noescape", "inline", "nobce", "noalloc" or "stale"
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s:%d: %s: contract %s: %s", v.File, v.Line, v.Func, v.Kind, v.Msg)
}

// Check returns every violation of the given contracts against the facts,
// in contract order. The staleness rule is load-bearing: under -m=2 every
// compiled function receives exactly one inline decision, so a contract
// whose function has none was not compiled under the gate's eyes (renamed,
// moved, or build-tagged out) and must fail rather than silently pass.
func Check(contracts []Contract, facts *Facts) []Violation {
	var out []Violation
	for _, c := range contracts {
		out = append(out, checkOne(c, facts)...)
	}
	return out
}

func checkOne(c Contract, facts *Facts) []Violation {
	var out []Violation
	stale := func(msg string) {
		out = append(out, Violation{File: c.File, Line: c.StartLine, Func: c.Func, Kind: "stale", Msg: msg})
	}
	inl, seen := facts.Inline[c.File][c.Func]
	if !seen {
		stale("no inline decision for " + c.Func + " in the diagnostic stream — the annotated function was not compiled (renamed, moved, or build-tagged out?)")
		return out
	}
	if c.Inline && !inl.Can {
		out = append(out, Violation{
			File: c.File, Line: inl.Line, Func: c.Func, Kind: "inline",
			Msg: "compiler no longer inlines it: " + inl.Reason,
		})
	}
	inRange := func(line int) bool { return line >= c.StartLine && line <= c.EndLine }
	if c.NoBCE {
		for _, b := range facts.BCE[c.File] {
			if inRange(b.Line) {
				out = append(out, Violation{
					File: c.File, Line: b.Line, Func: c.Func, Kind: "nobce",
					Msg: fmt.Sprintf("bounds check survives at col %d (%s)", b.Col, b.Kind),
				})
			}
		}
	}
	if c.NoAlloc {
		for _, e := range facts.Escape[c.File] {
			if (e.Kind == EscapeHeap || e.Kind == MovedToHeap) && inRange(e.Line) {
				out = append(out, Violation{
					File: c.File, Line: e.Line, Func: c.Func, Kind: "noalloc",
					Msg: "heap allocation survives: " + e.Msg,
				})
			}
		}
		for _, a := range c.Allocs {
			out = append(out, Violation{File: c.File, Line: a.Line, Func: c.Func, Kind: "noalloc", Msg: a.What})
		}
	}
	for _, p := range c.NoEscape {
		out = append(out, checkNoEscape(c, p, facts, stale)...)
	}
	return out
}

func checkNoEscape(c Contract, p string, facts *Facts, stale func(string)) []Violation {
	declared := false
	for _, name := range c.Params {
		if name == p {
			declared = true
			break
		}
	}
	if !declared {
		stale("noescape(" + p + ") names no parameter of " + c.Func)
		return nil
	}
	var out []Violation
	verdict := false
	inRange := func(line int) bool { return line >= c.StartLine && line <= c.EndLine }
	for _, e := range facts.Escape[c.File] {
		if e.Var != p || !inRange(e.Line) {
			continue
		}
		switch e.Kind {
		case LeakParam, MovedToHeap:
			verdict = true
			out = append(out, Violation{
				File: c.File, Line: e.Line, Func: c.Func, Kind: "noescape",
				Msg: p + " escapes: " + e.Msg,
			})
			return out // one verdict per param is enough
		case NonEscape:
			verdict = true
		}
	}
	if !verdict {
		stale("no escape verdict for parameter " + p + " of " + c.Func + " — not a reference-typed parameter, or the contract drifted")
	}
	return out
}
