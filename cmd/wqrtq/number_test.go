package main

// The decoder's number path against strconv.ParseFloat: the same float64,
// bit for bit (-0 included), and the same refusals, over random literals
// (TestParseNumberMatchesStrconv) and arbitrary bytes (FuzzParseNumber);
// the powers-of-ten table against strconv's listed rows; and the cost of
// one number beside scanning it and then calling strconv
// (BenchmarkParseNumber).

import (
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"wqrtq/internal/sample"
)

// checkNumber holds the float path to strconv.ParseFloat on lit, a whole
// number of JSON's grammar, and reports whether Eisel–Lemire converted it
// (rather than the strconv fallback).
func checkNumber(t *testing.T, lit string) (fast bool) {
	t.Helper()
	d := bodyDecoder{b: []byte(lit)}
	man, exp10, short, err := d.number()
	if err != nil || d.off != len(lit) {
		t.Fatalf("number(%q): consumed %d bytes, err %v", lit, d.off, err)
	}
	if short {
		_, fast = eiselLemire64(man, exp10, lit[0] == '-')
	}
	d.off = 0
	got, gerr := d.float()
	want, werr := strconv.ParseFloat(lit, 64)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%q: strconv err %v, float err %v", lit, werr, gerr)
	}
	if gerr == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: strconv %v (%#x), float %v (%#x)", lit, want, math.Float64bits(want), got, math.Float64bits(got))
	}
	return fast
}

// randomDigits renders a random number of JSON's grammar: up to 25 integer
// digits (or 0), up to 25 fraction digits, and an exponent in ±350.
func randomDigits(rng *rand.Rand) string {
	var b []byte
	if rng.Intn(2) == 0 {
		b = append(b, '-')
	}
	if n := rng.Intn(26); n == 0 {
		b = append(b, '0')
	} else {
		b = append(b, byte('1'+rng.Intn(9)))
		for range n - 1 {
			b = append(b, byte('0'+rng.Intn(10)))
		}
	}
	if n := rng.Intn(26); n > 0 {
		b = append(b, '.')
		for range n {
			b = append(b, byte('0'+rng.Intn(10)))
		}
	}
	if rng.Intn(4) > 0 {
		b = append(b, "eE"[rng.Intn(2)])
		if s := rng.Intn(3); s > 0 {
			b = append(b, "+-"[s-1])
		}
		b = strconv.AppendInt(b, int64(rng.Intn(351)), 10)
	}
	return string(b)
}

// randomFloat draws a finite float64: from uniform bits (any magnitude,
// subnormals included), uniform in [0, 1) as weights are, or one ulp from
// a power of ten.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		for {
			if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) && !math.IsInf(x, 0) {
				return x
			}
		}
	case 1:
		return rng.Float64()
	}
	p := math.Pow10(rng.Intn(617) - 308)
	return math.Nextafter(p, math.Inf(rng.Intn(3)-1))
}

func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 60000
	var shortest, fast int
	for range n {
		x := randomFloat(rng)
		lit := strconv.FormatFloat(x, 'g', -1, 64)
		shortest++
		if checkNumber(t, lit) {
			fast++
		}
		checkNumber(t, strconv.FormatFloat(x, 'e', rng.Intn(25)-1, 64))
		checkNumber(t, strconv.FormatFloat(x, 'f', rng.Intn(30)-1, 64))
		checkNumber(t, randomDigits(rng))
		checkNumber(t, randomDigits(rng))
	}
	// A fast path that always declined would pass the checks above on
	// strconv's answers alone.
	if fast < shortest*9/10 {
		t.Fatalf("Eisel–Lemire converted %d of %d shortest literals, want 90%%", fast, shortest)
	}
	for _, lit := range []string{
		"0", "-0", "-0.0", "0e999999", "1e400", "-1e400", "1e-400", "4.9e-324", "2.4703282292062327e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623159e308",
		"1234567890123456789", "12345678901234567890", "123456789012345678901234567890",
		"0.000000000123456789012345678", "1E+05", "9007199254740993",
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203126",
		"1" + strings.Repeat("0", 400) + "e-400", "1e18446744073709551616", "1e-18446744073709551616",
	} {
		checkNumber(t, lit)
	}
	var b rtopkBody
	body := `{"weights":[[0.5,1e400]]}`
	want := "offset " + strconv.Itoa(strings.Index(body, "1e400")) + ": number 1e400 out of range"
	if err := decodeBody([]byte(body), &b); err == nil || err.Error() != want {
		t.Fatalf("%s: err %v, want %q", body, err, want)
	}
}

// jsonNumber matches the longest prefix a number scan commits to (a '.',
// 'e' or sign followed by no digit included); validNumber is JSON's
// number grammar (RFC 8259 §6), for that prefix whole.
var (
	jsonNumber  = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?`)
	validNumber = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?$`)
)

// FuzzParseNumber feeds arbitrary bytes to the float path: it must accept
// exactly JSON's number grammar, consume exactly the number, and then
// return what strconv.ParseFloat returns for those bytes.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "1e400", "1e-400", "4.9e-324", "2.2250738585072011e-308",
		"1234567890123456789", "12345678901234567890123456789", "0.000000000123456789",
		"1E+05", "0.12345678,", "01", "1.", "1.e5", "-", "1e", "1e+", "1.5.3", "12345678e-5]", "1e18446744073709551616",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d := bodyDecoder{b: b}
		x, err := d.float()
		prefix := jsonNumber.Find(b)
		if prefix == nil || !validNumber.Match(prefix) {
			if err == nil {
				t.Fatalf("%q: accepted %q, not a JSON number", b, b[:d.off])
			}
			return
		}
		if d.off != len(prefix) {
			t.Fatalf("%q: consumed %d bytes, want %d (%q)", b, d.off, len(prefix), prefix)
		}
		want, werr := strconv.ParseFloat(string(prefix), 64)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: strconv err %v, float err %v", prefix, werr, err)
		}
		if err == nil && math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("%q: strconv %v, float %v", prefix, want, x)
		}
	})
}

// TestPowersOfTenTable pins computed rows to strconv's listed constants
// (src/strconv/eisel_lemire.go): the first, 1e0, the comment's 1e43 and
// the last.
func TestPowersOfTenTable(t *testing.T) {
	for _, c := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0x0000000000000000, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := detailedPowersOfTen[c.exp10-detailedPowersOfTenMinExp10]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d: row {%#x, %#x}, want {%#x, %#x}", c.exp10, got[0], got[1], c.lo, c.hi)
		}
	}
}

// BenchmarkParseNumber converts bench-shaped literals (shortest
// round-trip weights, as benchBody renders them), one per op: fused is the
// decoder's path; scan_then_strconv scans the literal with number and then
// calls strconv.ParseFloat on it, as the decoder did before the fused
// conversion.
func BenchmarkParseNumber(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var lits [][]byte
	for len(lits) < 3000 {
		for _, w := range sample.RandSimplex(rng, 3) {
			lits = append(lits, strconv.AppendFloat(nil, w, 'g', -1, 64))
		}
	}
	b.Run("fused", func(b *testing.B) {
		i := 0
		for b.Loop() {
			d := bodyDecoder{b: lits[i%len(lits)]}
			if _, err := d.float(); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("scan_then_strconv", func(b *testing.B) {
		i := 0
		for b.Loop() {
			d := bodyDecoder{b: lits[i%len(lits)]}
			if _, _, _, err := d.number(); err != nil {
				b.Fatal(err)
			}
			if _, err := strconv.ParseFloat(bytesString(d.b[:d.off]), 64); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
