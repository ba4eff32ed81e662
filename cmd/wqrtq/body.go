package main

// The request-body decoder of `wqrtq serve`: one pass over the bytes of a
// POST body, no reflection, into the seven body types of serve.go.
//
// Its contract is encoding/json's: for each body type, decodeBody accepts a
// body exactly when json.NewDecoder(bytes.NewReader(body)).Decode accepts
// it, and the two then leave bit-identical structs (FuzzDecodeBody is the
// oracle). That means:
//
//   - Only the first JSON value counts; bytes after it are ignored. A
//     top-level null leaves the body zero; any other non-object is refused.
//   - The value must be syntactically valid JSON, at most 10 000 containers
//     deep, including the value of a field the body does not have (it is
//     skipped, with its strings' escapes checked and invalid UTF-8 allowed).
//   - A key names a field by its unescaped bytes, or failing that by its
//     case fold (foldName). A repeated key decodes again into the same
//     field, so the last one wins — with encoding/json's reuse rule: a null
//     element of a number array keeps the number its slot held before.
//   - A wrong JSON type, an int written with a fraction or an exponent, and
//     a number out of its type's range refuse the body. An int goes through
//     strconv.ParseInt, as in encoding/json. A float is converted in the
//     scan that checks it, to strconv.ParseFloat's float64 bit for bit: up
//     to 19 significant digits are rounded by Eisel–Lemire
//     (eisel_lemire.go), which is exact or declines; a longer literal, and
//     any decline, goes to strconv.ParseFloat, which also keeps its range
//     errors.
//
// Allocation does not grow with the number of vectors: a [][]float64 is one
// flat []float64 cut into vectors, and it and its vector list grow by
// extrapolating the density of the bytes consumed so far over the rest of
// the body.

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// A requestBody is a POST body type: its fields table lists each JSON field
// once, with a pointer to where the field's value goes (*[]float64,
// *[][]float64, *int, *int64 or **int).
type requestBody interface {
	fields() []bodyField
}

type bodyField struct {
	name string
	dst  any
}

func (b *topKBody) fields() []bodyField {
	return []bodyField{{"w", &b.W}, {"k", &b.K}}
}

func (b *rankBody) fields() []bodyField {
	return []bodyField{{"w", &b.W}, {"q", &b.Q}}
}

func (b *rtopkBody) fields() []bodyField {
	return []bodyField{{"q", &b.Q}, {"k", &b.K}, {"weights", &b.Weights}}
}

func (b *explainBody) fields() []bodyField {
	return []bodyField{{"q", &b.Q}, {"weights", &b.Weights}}
}

func (b *whyNotBody) fields() []bodyField {
	return []bodyField{{"q", &b.Q}, {"k", &b.K}, {"weights", &b.Weights}, {"samples", &b.Samples}, {"seed", &b.Seed}}
}

func (b *insertBody) fields() []bodyField {
	return []bodyField{{"point", &b.Point}}
}

func (b *deleteBody) fields() []bodyField {
	return []bodyField{{"id", &b.ID}}
}

// readBody reads a whole request body, at most maxBodyBytes of it (a longer
// one fails with the *http.MaxBytesError of http.MaxBytesReader). The
// buffer is presized from Content-Length when that is a size the cap
// allows; the header is only a hint, the body's own end decides.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := 512
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		size = int(n) + 1 // the spare byte reads EOF without growing
	}
	buf := make([]byte, 0, size)
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = grow(buf, 0, 0)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// maxNestingDepth is encoding/json's limit on open arrays and objects.
const maxNestingDepth = 10000

// maxKeyBytes bounds the unescaped keys kept for matching: no key longer
// than this can equal or fold to a field name (the longest is 7 runes, and
// a rune is at most 4 bytes).
const maxKeyBytes = 32

type bodyDecoder struct {
	b   []byte
	off int
	key [maxKeyBytes]byte // an escaped key, unescaped
}

// decodeBody decodes the first JSON value of b into dst.
func decodeBody(b []byte, dst requestBody) error {
	d := bodyDecoder{b: b}
	d.ws()
	switch d.peek() {
	case '{':
		return d.object(dst.fields())
	case 'n':
		return d.literal("null") // null into a struct changes nothing
	}
	return d.fail("a JSON object")
}

func (d *bodyDecoder) object(fields []bodyField) error {
	d.off++ // {
	d.ws()
	if d.peek() == '}' {
		return nil
	}
	for {
		key, escaped, err := d.memberKey()
		if err != nil {
			return err
		}
		f := d.field(fields, key, escaped)
		var ok bool
		switch dst := f.dst.(type) {
		case nil:
			err = d.skip(1) // inside the body's object
		case *[]float64:
			err = d.floats(dst)
		case *[][]float64:
			err = d.vectors(dst)
		case *int:
			var n int64
			if n, ok, err = d.integer(strconv.IntSize); ok {
				*dst = int(n)
			}
		case *int64:
			var n int64
			if n, ok, err = d.integer(64); ok {
				*dst = n
			}
		case **int:
			var n int64
			if n, ok, err = d.integer(strconv.IntSize); ok {
				*dst = new(int)
				**dst = int(n)
			} else {
				*dst = nil
			}
		}
		if err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case '}':
			return nil // what follows the first value is not read
		default:
			return d.fail("',' or '}' in an object")
		}
	}
}

// field returns the field a key (as written, between its quotes) names,
// or a bodyField with a nil dst.
func (d *bodyDecoder) field(fields []bodyField, key []byte, escaped bool) bodyField {
	if escaped {
		var ok bool
		if key, ok = d.unescapeKey(key); !ok {
			return bodyField{}
		}
	}
	if len(key) > maxKeyBytes {
		return bodyField{}
	}
	for _, f := range fields {
		if string(key) == f.name {
			return f
		}
	}
	var buf [4 * maxKeyBytes]byte
	folded := appendFoldedName(buf[:0], key)
	for _, f := range fields {
		if foldsTo(folded, f.name) {
			return f
		}
	}
	return bodyField{}
}

// foldsTo reports whether folded is the fold of name, an ASCII field name.
func foldsTo(folded []byte, name string) bool {
	if len(folded) != len(name) {
		return false
	}
	for i := range folded {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if folded[i] != c {
			return false
		}
	}
	return true
}

// appendFoldedName and foldRune are encoding/json's (fold.go): the fold of
// a key is the smallest rune of each rune's case-fold orbit, so "K", the
// Kelvin sign and "k" all fold to "K".
func appendFoldedName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, foldRune(r))
		i += n
	}
	return out
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// unescapeKey unescapes the body of a key that str has validated, into
// d.key; it reports false, for a key that matches nothing, once the
// unescaped bytes would not fit. A \u escape of a UTF-16 surrogate becomes
// U+FFFD whether or not it pairs: encoding/json decodes a pair into a rune
// above U+FFFF, and neither folds to a field name.
func (d *bodyDecoder) unescapeKey(s []byte) ([]byte, bool) {
	out := d.key[:0]
	for i := 0; i < len(s); {
		if len(out) > maxKeyBytes-utf8.UTFMax {
			return nil, false
		}
		c := s[i]
		if c != '\\' {
			out = append(out, c)
			i++
			continue
		}
		switch c = s[i+1]; c {
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			var r rune
			for _, h := range s[i+2 : i+6] {
				r = r<<4 | rune(unhex(h))
			}
			if !utf8.ValidRune(r) {
				r = utf8.RuneError
			}
			out = utf8.AppendRune(out, r)
			i += 6
			continue
		default: // " \ /
			out = append(out, c)
		}
		i += 2
	}
	return out, true
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}

// floats decodes a number array (or null) into *dst.
func (d *bodyDecoder) floats(dst *[]float64) error {
	var flat []float64
	v, err := d.vector(&flat, *dst, -1)
	*dst = v
	return err
}

// vectors decodes an array of number arrays (or null) into *dst: every
// vector is cut from one flat []float64.
func (d *bodyDecoder) vectors(dst *[][]float64) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.fail("an array of number arrays")
	}
	origin := d.off
	d.off++
	d.ws()
	if d.peek() == ']' {
		d.off++
		*dst = [][]float64{}
		return nil
	}
	prev := (*dst)[:cap(*dst)]
	var flat []float64
	var vs [][]float64
	for i := 0; ; i++ {
		var old []float64
		if i < len(prev) {
			old = prev[i]
		}
		v, err := d.vector(&flat, old, origin)
		if err != nil {
			return err
		}
		if len(vs) == cap(vs) {
			vs = grow(vs, d.off-origin, len(d.b)-d.off)
		}
		vs = append(vs, v)
		d.ws()
		if d.peek() == ']' {
			d.off++
			break
		}
		if d.peek() != ',' {
			return d.fail("',' or ']' in an array")
		}
		d.off++
		d.ws()
	}
	n := len(vs)
	if n < len(prev) {
		// Slots past the new length keep what they held, as the slice
		// encoding/json reuses does, for a later repeat of the key.
		vs = append(vs, prev[n:]...)[:n]
	}
	// Vectors cut before flat last grew point into its old arrays: cut
	// them all again from the final one, in the order they were laid out.
	at := 0
	for i, v := range vs {
		if c := cap(v); c > 0 {
			vs[i] = flat[at : at+len(v) : at+c]
			at += c
		}
	}
	*dst = vs
	return nil
}

// vector decodes a number array (or null) whose previous value was old,
// appending its elements to *flat, and returns it as a full slice of *flat.
// A null element keeps old's number in its slot (0 past old's capacity);
// the capacity past the new length carries old's remaining slots, so a
// further repeat of the key sees them too. [] is empty and not nil, and
// forgets old. origin is where the bytes that filled *flat began, or -1 to
// grow *flat by doubling alone.
func (d *bodyDecoder) vector(flat *[]float64, old []float64, origin int) ([]float64, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, d.fail("an array of numbers")
	}
	d.off++
	d.ws()
	if d.peek() == ']' {
		d.off++
		return []float64{}, nil
	}
	old = old[:cap(old)]
	fs := *flat
	start := len(fs)
	for i := 0; ; i++ {
		var x float64
		switch c := d.peek(); {
		case c == '-' || '0' <= c && c <= '9':
			var err error
			if x, err = d.float(); err != nil {
				return nil, err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return nil, err
			}
			if i < len(old) {
				x = old[i]
			}
		default:
			return nil, d.fail("a number")
		}
		if len(fs) == cap(fs) {
			used := 0
			if origin >= 0 {
				used = d.off - origin
			}
			fs = grow(fs, used, len(d.b)-d.off)
		}
		fs = append(fs, x)
		d.ws()
		if d.peek() == ']' {
			d.off++
			break
		}
		if d.peek() != ',' {
			return nil, d.fail("',' or ']' in an array")
		}
		d.off++
		d.ws()
	}
	n := len(fs) - start
	if n < len(old) {
		fs = append(fs, old[n:]...)
	}
	*flat = fs
	return fs[start : start+n : len(fs)], nil
}

// grow returns s with room for more elements. An array that has filled
// len(s) slots from used bytes is assumed to keep that density over the
// left bytes of the body, with an eighth to spare; it at least doubles,
// and only doubles when used is 0.
func grow[T any](s []T, used, left int) []T {
	n := len(s)
	want := max(2*n, 16)
	if used > 0 {
		want = max(want, n+int(int64(n)*int64(left)/int64(used)*9/8))
	}
	t := make([]T, n, want)
	copy(t, s)
	return t
}

// integer decodes an integer literal of at most bits bits, or null; ok
// reports a number. (null leaves an int as it was and sets an *int to nil.)
func (d *bodyDecoder) integer(bits int) (n int64, ok bool, err error) {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		start := d.off
		if _, _, _, err := d.number(); err != nil {
			return 0, false, err
		}
		lit := d.b[start:d.off]
		n, err := strconv.ParseInt(bytesString(lit), 10, bits)
		if err != nil {
			return 0, false, fmt.Errorf("offset %d: %s is not an integer of %d bits", start, lit, bits)
		}
		return n, true, nil
	case c == 'n':
		return 0, false, d.literal("null")
	}
	return 0, false, d.fail("an integer")
}

// bytesString views b as a string for strconv, which keeps no reference to
// its argument (its errors copy it), so no string is allocated.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// skip consumes the value of a field the body does not have, checking its
// syntax as encoding/json's scanner does; depth containers are open around
// it, and the recursion stops at maxNestingDepth.
func (d *bodyDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth >= maxNestingDepth {
			return d.fail("at most 10000 nested arrays and objects")
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		d.off++
		d.ws()
		if d.peek() == end {
			d.off++
			return nil
		}
		for {
			if c == '{' {
				if _, _, err := d.memberKey(); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.ws()
			switch d.peek() {
			case ',':
				d.off++
				d.ws()
			case end:
				d.off++
				return nil
			default:
				return d.fail("',' or a closing bracket")
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, _, _, err := d.number()
		return err
	}
	return d.fail("a value")
}

// memberKey consumes `"key" :` and the space after it, and returns the key
// as written between its quotes and whether it holds an escape.
func (d *bodyDecoder) memberKey() (key []byte, escaped bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.fail("an object key")
	}
	start := d.off + 1
	if escaped, err = d.str(); err != nil {
		return nil, false, err
	}
	key = d.b[start : d.off-1]
	d.ws()
	if d.peek() != ':' {
		return nil, false, d.fail("':' after an object key")
	}
	d.off++
	d.ws()
	return key, escaped, nil
}

// str consumes the string at d.off: control bytes are refused and escapes
// checked; other bytes, invalid UTF-8 included, pass. It reports whether
// the string holds an escape.
func (d *bodyDecoder) str() (escaped bool, err error) {
	b := d.b
	for i := d.off + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			return escaped, nil
		case c == '\\':
			escaped = true
			if i+1 == len(b) {
				d.off = len(b)
				return false, d.fail("an escape")
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j == len(b) || !isHex(b[j]) {
						d.off = j
						return false, d.fail("a hex digit")
					}
				}
				i += 6
			default:
				d.off = i + 1
				return false, d.fail("an escape")
			}
		case c < 0x20:
			d.off = i
			return false, d.fail("a string byte")
		default:
			i++
		}
	}
	d.off = len(b)
	return false, d.fail("a closing quote")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// float consumes a number and returns its value, the float64 that
// strconv.ParseFloat returns for its literal.
func (d *bodyDecoder) float() (float64, error) {
	start := d.off
	man, exp10, short, err := d.number()
	if err != nil {
		return 0, err
	}
	lit := d.b[start:d.off]
	if short {
		if x, ok := eiselLemire64(man, exp10, lit[0] == '-'); ok {
			return x, nil
		}
	}
	x, err := strconv.ParseFloat(bytesString(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("offset %d: number %s out of range", start, lit)
	}
	return x, nil
}

// number consumes a number of JSON's grammar, reading it as strconv's
// readFloat does: its significant digits (leading zeros skipped) into man,
// and its decimal exponent, capped at 10 000, into exp10. short reports
// that there are at most 19 significant digits, so that man × 10^exp10 is
// the number; with more, man and exp10 mean nothing.
func (d *bodyDecoder) number() (man uint64, exp10 int, short bool, err error) {
	b, i := d.b, d.off
	if i < len(b) && b[i] == '-' {
		i++
	}
	nd := 0 // significant digits read
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, man, nd = digits(b, i, man, nd)
	default:
		d.off = i
		return 0, 0, false, d.fail("a digit")
	}
	dp := nd // digits before the decimal point
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
			dp -= i - j
		}
		if i, man, nd = digits(b, i, man, nd); i == j {
			d.off = i
			return 0, 0, false, d.fail("a digit after '.'")
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		j, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			d.off = i
			return 0, 0, false, d.fail("a digit in the exponent")
		}
		if neg {
			e = -e
		}
		dp += e
	}
	d.off = i
	return man, dp - nd, nd <= 19, nil
}

// digits consumes the decimal digits at b[i:], appending them to man (mod
// 2^64) and counting them in nd: eight at a time while eight follow, with
// the SWAR test and conversion of Lemire's fast_float.
func digits(b []byte, i int, man uint64, nd int) (int, uint64, int) {
	for i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(v) {
			break
		}
		man = man*100000000 + eightDigitsValue(v)
		i += 8
		nd += 8
	}
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		man = man*10 + uint64(b[i]-'0')
		nd++
	}
	return i, man, nd
}

// eightDigits reports whether the eight bytes of v, loaded little-endian,
// are all ASCII digits: a byte above '9' sets its top bit in the sum, one
// below '0' in the difference.
//
//wqrtq:contract inline
func eightDigits(v uint64) bool {
	return ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 == 0
}

// eightDigitsValue is the number the eight ASCII digits of v spell, the
// first byte most significant: pairs, then quads, then the eight are
// combined by multiplies that each add neighbours with their weights.
//
//wqrtq:contract inline
func eightDigitsValue(v uint64) uint64 {
	const mask = 0x000000FF000000FF
	const mul1 = 100 + 1000000<<32
	const mul2 = 1 + 10000<<32
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return uint64(uint32(((v&mask)*mul1 + ((v>>16)&mask)*mul2) >> 32))
}

// literal consumes the literal lit (true, false or null).
func (d *bodyDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.fail("literal " + lit)
		}
		d.off++
	}
	return nil
}

func (d *bodyDecoder) ws() {
	for d.off < len(d.b) {
		switch d.b[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, or 0 at the end of the body (0 is never
// valid where a peek looks, so the end needs no case of its own).
func (d *bodyDecoder) peek() byte {
	if d.off < len(d.b) {
		return d.b[d.off]
	}
	return 0
}

// fail reports what was expected at d.off and was not there.
func (d *bodyDecoder) fail(want string) error {
	if d.off >= len(d.b) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("offset %d: want %s, got %q", d.off, want, d.b[d.off])
}
