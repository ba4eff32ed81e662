// Package feq is the single audited home for exact floating-point
// comparisons. The bit-identical discipline (every differential suite
// asserts accelerated paths reproduce the scalar paths to the last bit)
// makes exact float equality meaningful in this codebase — duplicate-λ
// breakpoint dedup, zero-weight dimension elimination, tie detection on
// scores — but scattering raw == over float64 makes each site a question
// ("was a tolerance intended here?") and leaves NaN behavior implicit.
//
// The floateq analyzer, run by cmd/wqrtqgate, forbids direct ==/!= on
// floats outside //wqrtq:floatcmp-annotated helpers; these are those
// helpers. All of them are exact IEEE-754 comparisons, inlined by the
// compiler to the same instruction as the raw operator: routing through
// feq changes no bits, it only centralizes intent. A future tolerance or
// NaN policy change has exactly one file to edit.
package feq

// Eq reports a == b exactly (IEEE-754: false when either is NaN).
//
//wqrtq:floatcmp
func Eq(a, b float64) bool { return a == b }

// Ne reports a != b exactly (IEEE-754: true when either is NaN).
//
//wqrtq:floatcmp
func Ne(a, b float64) bool { return a != b }

// Zero reports x == 0 exactly (either signed zero).
//
//wqrtq:floatcmp
func Zero(x float64) bool { return x == 0 }
