package main

// The request-body decoder against its oracle, encoding/json: the same
// accept/refuse verdict and bit-identical structs for every body type
// (FuzzDecodeBody), allocation that does not grow with |W|, and the decode
// cost beside encoding/json's (BenchmarkDecodeBody).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"wqrtq/internal/sample"
)

// benchBody renders a request body the way the benchmark harness does
// (bench/gen.go): shortest round-trip floats, q then k then the weights,
// |W| = nw vectors of dimension d; whynot bodies add samples and seed.
func benchBody(kind string, d, nw int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	floats := func(b []byte, v []float64) []byte {
		b = append(b, '[')
		for i, f := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, f, 'g', -1, 64)
		}
		return append(b, ']')
	}
	q := make([]float64, d)
	for i := range q {
		q[i] = rng.Float64()
	}
	b := append([]byte(`{"q":`), floats(nil, q)...)
	b = append(b, `,"k":10,"weights":[`...)
	for i := 0; i < nw; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = floats(b, sample.RandSimplex(rng, d))
	}
	b = append(b, ']')
	if kind == "whynot" {
		b = append(b, `,"samples":800,"seed":`...)
		b = strconv.AppendInt(b, seed, 10)
	}
	return append(b, '}')
}

// decodeEdgeCases are the bodies where a hand-written decoder most easily
// parts from encoding/json; each is tried against every body type.
var decodeEdgeCases = []string{
	`{"k":1.0}`,
	`{"k":1e2}`,
	`{"k":-0,"seed":-9223372036854775808,"samples":9223372036854775807}`,
	`{"seed":9223372036854775808}`,
	`{"q":[1e400]}`,
	`{"q":[-0,0,-0.0,1e-400,4.9e-324,1.7976931348623157e308]}`,
	`{"weights":[[0.5,1e400]]}`,
	`{"weights":[[1e-400,-0,-0.0,4.9e-324,2.2250738585072011e-308,1E+05]]}`,
	`{"weights":[[1234567890123456789,0.1234567890123456789,12345678901234567890,0.12345678901234567890123456789]]}`,
	`{"weights":[[0.000000000123456789012345678,9007199254740993,1.00000000000000011102230246251565404236316680908203125]]}`,
	`{"K":3}`,
	`{"\u0071":[1,2]}`,
	`{"\u212a":3}`,
	"{\"\u212a\":3,\"ſamples\":4,\"ſeed\":5,\"İd\":6,\"ıd\":7,\"ID\":8}",
	`{"\ud800\udc00":1,"\ud800":2,"q\u0000":[1]}`,
	`{"k":1,"k":2}`,
	`{"k":1,"k":null}`,
	`{"id":3,"id":null}`,
	`{"id":null,"id":4}`,
	`{"weights":[[1],null]}`,
	`{"weights":[[1],[]],"w":[],"q":null}`,
	`{"w":[1]}}{`,
	`{"w":[1]} trailing garbage`,
	`null`,
	`nullx`,
	`nul`,
	``,
	` `,
	`[]`,
	`"str"`,
	`3`,
	`{"q":[1,2,3],"q":[4],"q":[null,null,null,null]}`,
	`{"weights":[[1,2,3],[4,5]],"weights":[[6]],"weights":[[null,null,null],[null,7],null]}`,
	`{"weights":[[1,2]],"weights":[],"weights":[[null,null]]}`,
	`{"x":{"a":[1,"b",{"c":null}],"d":true},"k":3,"y":[false,-1.5e3,"\u00e9\n"]}`,
	"{\"x\":\"\xff\xfe\xfd\",\"k\":1}",
	"{\"k\":1,\"x\":\"\x01\"}",
	`{"x":"\uZZZZ"}`,
	`{"x":"\q"}`,
	`{"k":01}`,
	`{"k":1.}`,
	`{"k":-}`,
	`{"k":.5}`,
	`{"k":+1}`,
	`{"w":[1,]}`,
	`{"w":[,1]}`,
	`{"k":1,}`,
	`{,"k":1}`,
	`{"k" 1}`,
	`{"k":tru}`,
	`{"k":true}`,
	`{"w":"abc"}`,
	`{"w":{}}`,
	`{"weights":[1]}`,
	`{"weights":[[[1]]]}`,
	`{"id":1.5}`,
	`{"id":"1"}`,
	` 	{"w" : [ 0.5 , 0.5 ] , "k" : 1 } `,
}

// deepBody nests depth arrays inside an unknown field: with the body's own
// object, depth + 1 containers are open at the innermost point.
func deepBody(depth int) string {
	return `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"k":1}`
}

// checkDecodeBody holds decodeBody to encoding/json on one body type.
func checkDecodeBody[B any, PB interface {
	*B
	requestBody
}](t *testing.T, b []byte) {
	t.Helper()
	var want, got B
	werr := json.NewDecoder(bytes.NewReader(b)).Decode(&want)
	gerr := decodeBody(b, PB(&got))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%T on %q: encoding/json err %v, decodeBody err %v", got, clip(b), werr, gerr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%T on %q:\nencoding/json %+v\n   decodeBody %+v", got, clip(b), want, got)
	}
	if wb, gb := floatBits(reflect.ValueOf(want)), floatBits(reflect.ValueOf(got)); !slices.Equal(wb, gb) {
		t.Fatalf("%T on %q: float bits differ\nencoding/json %x\n   decodeBody %x", got, clip(b), wb, gb)
	}
}

// checkAllBodies runs checkDecodeBody for each of the seven body types.
func checkAllBodies(t *testing.T, b []byte) {
	t.Helper()
	checkDecodeBody[topKBody](t, b)
	checkDecodeBody[rankBody](t, b)
	checkDecodeBody[rtopkBody](t, b)
	checkDecodeBody[explainBody](t, b)
	checkDecodeBody[whyNotBody](t, b)
	checkDecodeBody[insertBody](t, b)
	checkDecodeBody[deleteBody](t, b)
}

// floatBits lists the bits of every float64 reachable from v, in order.
func floatBits(v reflect.Value) []uint64 {
	var out []uint64
	var walk func(reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			out = append(out, math.Float64bits(v.Float()))
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(v)
	return out
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

func TestDecodeBodyMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeEdgeCases {
		checkAllBodies(t, []byte(c))
	}
	for _, c := range serveErrorCases {
		if len(c.body) <= maxBodyBytes {
			checkAllBodies(t, []byte(c.body))
		}
	}
	for _, d := range []int{3, 13} {
		checkAllBodies(t, benchBody("rtopk", d, 1000, 1))
		checkAllBodies(t, benchBody("whynot", d, 1, 2))
	}
	// encoding/json's nesting limit: 10 000 containers open, the body's
	// object included, and not one more.
	checkAllBodies(t, []byte(deepBody(maxNestingDepth-1)))
	checkAllBodies(t, []byte(deepBody(maxNestingDepth)))
	var b topKBody
	if err := decodeBody([]byte(deepBody(maxNestingDepth-1)), &b); err != nil || b.K != 1 {
		t.Fatalf("%d nested arrays in an unknown field: err %v, k %d", maxNestingDepth-1, err, b.K)
	}
	if err := decodeBody([]byte(deepBody(maxNestingDepth)), &b); err == nil {
		t.Fatalf("%d nested arrays in an unknown field decoded", maxNestingDepth)
	}
}

// TestBodyFieldTables checks each body's field table against its struct:
// one entry per field, named by the field's json tag, pointing at it.
func TestBodyFieldTables(t *testing.T) {
	for _, body := range []requestBody{&topKBody{}, &rankBody{}, &rtopkBody{}, &explainBody{}, &whyNotBody{}, &insertBody{}, &deleteBody{}} {
		v := reflect.ValueOf(body).Elem()
		fs := body.fields()
		if len(fs) != v.NumField() {
			t.Fatalf("%T: %d table entries for %d fields", body, len(fs), v.NumField())
		}
		for i, f := range fs {
			sf := v.Type().Field(i)
			if tag := sf.Tag.Get("json"); f.name != tag {
				t.Fatalf("%T field %s: table name %q, json tag %q", body, sf.Name, f.name, tag)
			}
			if p := reflect.ValueOf(f.dst); p.Pointer() != v.Field(i).Addr().Pointer() || p.Type().Elem() != sf.Type {
				t.Fatalf("%T field %s: table entry %q points elsewhere", body, sf.Name, f.name)
			}
		}
	}
}

// TestDecodeBodyAllocsPerOp pins that a bench-shaped reverse top-k body
// decodes in a handful of allocations however many vectors it carries
// (encoding/json: one per vector, 3 032 at d = 3 and 5 039 at d = 13).
func TestDecodeBodyAllocsPerOp(t *testing.T) {
	const bound = 8
	for _, d := range []int{3, 13} {
		for _, nw := range []int{100, 1000} {
			body := benchBody("rtopk", d, nw, 1)
			allocs := testing.AllocsPerRun(20, func() {
				var b rtopkBody
				if err := decodeBody(body, &b); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > bound {
				t.Errorf("d=%d |W|=%d: %.0f allocations per decode, want <= %d", d, nw, allocs, bound)
			}
		}
	}
}

// BenchmarkDecodeBody decodes a bench-shaped reverse top-k body (|W| =
// 1000) with decodeBody and, beside it, with encoding/json as the route
// did before.
func BenchmarkDecodeBody(b *testing.B) {
	for _, d := range []int{3, 13} {
		body := benchBody("rtopk", d, 1000, 1)
		b.Run(fmt.Sprintf("d=%d/onepass", d), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var r rtopkBody
				if err := decodeBody(body, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/encoding_json", d), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var r rtopkBody
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzDecodeBody is the decoder's oracle: for every body type, decodeBody
// accepts exactly the bodies encoding/json's Decoder accepts, and then
// leaves a DeepEqual struct with bit-identical floats (-0 included). The
// bench-shaped seeds carry |W| = 16, not 1000: a 265 KB input makes every
// mutation and minimization step cost ~0.1 s, and the full-size bodies are
// TestDecodeBodyMatchesEncodingJSON's.
func FuzzDecodeBody(f *testing.F) {
	for _, d := range []int{3, 13} {
		f.Add(benchBody("rtopk", d, 16, 1))
		f.Add(benchBody("whynot", d, 1, 2))
	}
	for _, c := range serveErrorCases {
		if len(c.body) <= maxBodyBytes {
			f.Add([]byte(c.body))
		}
	}
	for _, c := range decodeEdgeCases {
		f.Add([]byte(c))
	}
	f.Add([]byte(deepBody(maxNestingDepth)))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkAllBodies(t, b)
	})
}
