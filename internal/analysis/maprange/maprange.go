// Package maprange forbids `for range` over maps in answer-assembly and
// scoring code, where Go's randomized map iteration order would leak
// nondeterminism into responses, cache contents, or float accumulation
// order — breaking the bit-identical discipline every differential suite
// in this repository asserts.
//
// Iterations whose order provably cannot be observed (building another
// map, summing integers) are allowlisted with //wqrtq:unordered on the
// range line or the line above, with a short rationale after the
// directive: `//wqrtq:unordered summing ints`.
package maprange

import (
	"go/ast"
	"go/types"

	"wqrtq/internal/analysis"
)

// OrderedPackages are the packages where map iteration order can reach an
// answer: the engine's serve path, the HTTP response assembly in
// the root package, and every scoring/evaluation package.
var OrderedPackages = map[string]bool{
	"wqrtq":                    true,
	"wqrtq/internal/engine":    true,
	"wqrtq/internal/core":      true,
	"wqrtq/internal/topk":      true,
	"wqrtq/internal/rtopk":     true,
	"wqrtq/internal/kernel":    true,
	"wqrtq/internal/cellindex": true,
	"wqrtq/internal/skyband":   true,
}

var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc: "report `for range` over maps in answer-assembly and scoring packages, where iteration " +
		"order breaks bit-identical answers; allowlist order-insensitive sweeps with //wqrtq:unordered",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !OrderedPackages[pass.Pkg.Path()] {
		return nil
	}
	dirs := pass.Directives()
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if dirs.At(rng, analysis.DirUnordered) {
				return true
			}
			pass.Reportf(rng.Pos(), "map iteration order is randomized and may leak into answers (sort the keys, iterate an ordered slice, or annotate //wqrtq:unordered with a rationale)")
			return true
		})
	}
	return nil
}
