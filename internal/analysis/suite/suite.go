// Package suite enumerates the wqrtqlint analyzers in their canonical
// order. cmd/wqrtqlint and the integration tests share this list so the
// vet tool and the in-process "runs clean over ./..." guard can never
// disagree about what is enforced.
package suite

import (
	"wqrtq/internal/analysis"
	"wqrtq/internal/analysis/ctxloop"
	"wqrtq/internal/analysis/floateq"
	"wqrtq/internal/analysis/lockhold"
	"wqrtq/internal/analysis/maprange"
	"wqrtq/internal/analysis/snapshotmut"
)

// All returns the analyzers in deterministic order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		snapshotmut.Analyzer,
		ctxloop.Analyzer,
		maprange.Analyzer,
		floateq.Analyzer,
		lockhold.Analyzer,
	}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
