// Command wqrtqgate is the module's one static gate. It type-checks the
// module's non-test files once and runs three checks over them.
//
// The four invariant analyzers (DESIGN.md §11) are snapshotmut, ctxloop,
// maprange and lockhold; each finding prints as
// file:line:col: message (analyzer).
//
// The compiler-contract gate (internal/analysis/contract, DESIGN.md §12)
// compiles the module with gc diagnostics enabled
// (-gcflags='-m=2 -d=ssa/check_bce'), parses the position-tagged
// diagnostic stream into per-function facts (escape verdicts, inlining
// decisions, surviving bounds checks) and checks them against every
// //wqrtq:contract annotation. A noalloc contract also reads the
// function's typed body for the allocations gc reports no heap fact for:
// append, go statements, string concatenation and string/slice
// conversions.
//
// The dead-API pass (internal/analysis/deadapi) requires every exported
// identifier under internal/ to have a non-test caller, and every option
// field a setter, or an entry in the module's deadapi.allow.
//
//	wqrtqgate [-C dir] [-diag file] [patterns...]
//
// Patterns default to ./... relative to the module root. -diag writes the
// raw diagnostic stream to a file (CI uploads it as an artifact when the
// gate fails). Exit status: 0 clean, 1 tool or build failure, 2 analyzer
// findings, contract violations or dead API.
//
// The gate makes the compiler's optimization decisions part of the checked
// interface: a refactor that re-introduces a heap escape or a bounds check
// into a contracted kernel loop fails CI with a file:line diff instead of
// surfacing weeks later as benchmark drift. Contracts fail closed — an
// annotation whose diagnostics cannot be found at all (function renamed,
// file build-tagged out, parameter dropped) is an error, so a contract can
// never rot into silent vacuity.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		dir  = flag.String("C", ".", "module directory to gate")
		diag = flag.String("diag", "", "write the raw gc diagnostic stream to this file")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := runGate(*dir, patterns)
	if *diag != "" && len(res.Stream) > 0 {
		if werr := os.WriteFile(*diag, res.Stream, 0o666); werr != nil {
			fmt.Fprintf(os.Stderr, "wqrtqgate: writing %s: %v\n", *diag, werr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wqrtqgate: %v\n", err)
		os.Exit(1)
	}
	for _, f := range res.Findings {
		fmt.Fprintf(os.Stderr, "%s\n", f)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(os.Stderr, "%s\n", v)
	}
	for _, v := range res.Dead {
		fmt.Fprintf(os.Stderr, "%s\n", v)
	}
	if f, n, d := len(res.Findings), len(res.Violations), len(res.Dead); f+n+d > 0 {
		fmt.Fprintf(os.Stderr, "wqrtqgate: %d analyzer finding(s), %d contract violation(s) across %d contract(s), %d dead-API finding(s)\n", f, n, len(res.Contracts), d)
		os.Exit(2)
	}
	fmt.Printf("wqrtqgate: %d analyzers clean, %d contract(s) hold, no dead API\n", len(analyzers), len(res.Contracts))
}
