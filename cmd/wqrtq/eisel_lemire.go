// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution
// (https://go.dev/LICENSE).

package main

// eiselLemire64 is strconv's (src/strconv/eisel_lemire.go), the
// Eisel–Lemire conversion of man × 10^exp10 to the nearest float64,
// described at https://nigeltao.github.io/blog/2020/eisel-lemire.html. It
// returns the correctly rounded value or declines (ok false): on an
// exponent outside the table, a product too close to a halfway point, a
// subnormal and an overflow. Only the table differs from strconv's: it is
// computed at start-up from math/big instead of listed.

import (
	"math"
	"math/big"
	"math/bits"
)

func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// The terse comments in this function body refer to sections of the
	// https://nigeltao.github.io/blog/2020/eisel-lemire.html blog post.

	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < detailedPowersOfTenMinExp10 || detailedPowersOfTenMaxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, detailedPowersOfTen[exp10-detailedPowersOfTenMinExp10][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, detailedPowersOfTen[exp10-detailedPowersOfTenMinExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// detailedPowersOfTen{Min,Max}Exp10 is the power of 10 represented by the
// first and last rows of detailedPowersOfTen. Both bounds are inclusive.
const (
	detailedPowersOfTenMinExp10 = -348
	detailedPowersOfTenMaxExp10 = +347
)

// detailedPowersOfTen contains 128-bit mantissa approximations (rounded down)
// to the powers of 10, as {low 64 bits, high 64 bits}. For example:
//
//   - 1e43 ≈ (0xE596B7B0_C643C719                   * (2 ** 79))
//   - 1e43 = (0xE596B7B0_C643C719_6D9CCD05_D0000000 * (2 ** 15))
//
// The exponents are implied by a linear expression with slope
// 217706.0/65536.0 ≈ log(10)/log(2).
var detailedPowersOfTen = powersOfTen()

// powersOfTen computes detailedPowersOfTen: the 128 leading bits of 10^e,
// for e ≥ 0 its top bits and for e < 0 the quotient ⌊2^(L+127) / 10^−e⌋,
// where L is the bit length of 10^−e (the quotient then has exactly 128
// bits, since no 10^−e is a power of two).
func powersOfTen() [detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64 {
	var t [detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1][2]uint64
	row := func(e int, m *big.Int) {
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64))
		t[e-detailedPowersOfTenMinExp10] = [2]uint64{lo.Uint64(), m.Rsh(m, 64).Uint64()}
	}
	p, ten := big.NewInt(1), big.NewInt(10) // p = 10^e
	for e := 0; e <= -detailedPowersOfTenMinExp10; e++ {
		l := p.BitLen()
		if e <= detailedPowersOfTenMaxExp10 {
			m := new(big.Int)
			if l > 128 {
				m.Rsh(p, uint(l-128))
			} else {
				m.Lsh(p, uint(128-l))
			}
			row(e, m)
		}
		if e > 0 {
			m := new(big.Int).Lsh(big.NewInt(1), uint(l+127))
			row(-e, m.Quo(m, p))
		}
		p.Mul(p, ten)
	}
	return t
}
