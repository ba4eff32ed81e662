package main

// HTTP handler tests for `wqrtq serve`: golden JSON responses over a fixed
// five-point dataset whose scores are exact binary fractions (so the JSON
// encodings are stable), plus the error paths.
//
// Dataset (id: point), weights chosen so w=[0.25,0.75] ranks are distinct:
//
//	0: [1,8]  1: [2,5]  2: [4,3]  3: [8,2]  4: [9,1]

import (
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wqrtq"
	"wqrtq/internal/dataset"
	"wqrtq/internal/sample"
	"wqrtq/internal/storage"
)

func serveTestHandler(t *testing.T) http.Handler {
	t.Helper()
	ix, err := wqrtq.NewIndex([][]float64{
		{1, 8}, {2, 5}, {4, 3}, {8, 2}, {9, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return newServeHandler(e, 0)
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func wantGolden(t *testing.T, rec *httptest.ResponseRecorder, wantCode int, golden string) {
	t.Helper()
	if rec.Code != wantCode {
		t.Fatalf("status %d, want %d; body %s", rec.Code, wantCode, rec.Body.String())
	}
	if got := rec.Body.String(); got != golden {
		t.Fatalf("response mismatch\n got: %s\nwant: %s", got, golden)
	}
}

func TestServeTopKGolden(t *testing.T) {
	h := serveTestHandler(t)
	rec := post(t, h, "/v1/topk", `{"w":[0.25,0.75],"k":3}`)
	wantGolden(t, rec, http.StatusOK,
		`{"epoch":0,"result":[{"id":4,"point":[9,1],"score":3},{"id":2,"point":[4,3],"score":3.25},{"id":3,"point":[8,2],"score":3.5}]}`+"\n")
}

func TestServeRankGolden(t *testing.T) {
	h := serveTestHandler(t)
	rec := post(t, h, "/v1/rank", `{"w":[0.75,0.25],"q":[3,3]}`)
	wantGolden(t, rec, http.StatusOK, `{"epoch":0,"rank":3}`+"\n")
}

func TestServeRTopKGolden(t *testing.T) {
	h := serveTestHandler(t)
	rec := post(t, h, "/v1/rtopk",
		`{"q":[3,3],"k":2,"weights":[[0.25,0.75],[0.75,0.25],[0.5,0.5]]}`)
	wantGolden(t, rec, http.StatusOK, `{"epoch":0,"result":[0,2],"rta":{"evaluated":2,"pruned":1,"candidate_set_size":5}}`+"\n")
}

func TestServeWhyNotGolden(t *testing.T) {
	h := serveTestHandler(t)
	rec := post(t, h, "/v1/whynot",
		`{"q":[3,3],"k":2,"weights":[[0.25,0.75],[0.75,0.25],[0.5,0.5]],"samples":64,"seed":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	// modify_query is the analytic MQP optimum rounded into the safe region:
	// the missing w = (0.75, 0.25) has 2nd score s = 2.75 (points (1, 8) and
	// (2, 5)), and projecting q = (3, 3) onto w·x = s moves it by t·w with
	// t = (w·q − s)/‖w‖² = 0.25/0.625 = 0.4, to (2.7, 2.9); penalty
	// ‖(0.3, 0.1)‖/‖(3, 3)‖ = √0.1/√18. The snap into vec.Score's
	// arithmetic leaves each coordinate a few ulps below.
	golden := `{"epoch":0,"result":[0,2],"missing":[1],"rta":{"evaluated":2,"pruned":1,"candidate_set_size":5},"explanations":[[{"id":0,"point":[1,8],"score":2.75},{"id":1,"point":[2,5],"score":2.75}]],"modify_query":{"q":[2.6999999999999997,2.8999999999999995],"penalty":0.0745355992499931},"modify_preferences":{"wm":[[0.7142857142857143,0.2857142857142857]],"k":2,"penalty":0.025253813613805257},"modify_all":{"q":[3,3],"wm":[[0.7142857142857143,0.2857142857142857]],"k":2,"penalty":0.012626906806902628}}`
	if got := rec.Body.String(); got != golden+"\n" {
		t.Fatalf("response mismatch\n got: %s\nwant: %s", got, golden)
	}
}

func TestServeInsertDeleteRoundTrip(t *testing.T) {
	h := serveTestHandler(t)
	rec := post(t, h, "/v1/insert", `{"point":[1,1]}`)
	wantGolden(t, rec, http.StatusOK, `{"epoch":2,"id":5}`+"\n")

	// The new point dominates everything: it is now the top-1.
	rec = post(t, h, "/v1/topk", `{"w":[0.5,0.5],"k":1}`)
	wantGolden(t, rec, http.StatusOK,
		`{"epoch":2,"result":[{"id":5,"point":[1,1],"score":1}]}`+"\n")

	rec = post(t, h, "/v1/delete", `{"id":5}`)
	wantGolden(t, rec, http.StatusOK, `{"epoch":4,"deleted":true}`+"\n")

	rec = post(t, h, "/v1/delete", `{"id":5}`)
	wantGolden(t, rec, http.StatusOK, `{"epoch":4,"deleted":false}`+"\n")
}

func TestServeExplain(t *testing.T) {
	h := serveTestHandler(t)
	rec := post(t, h, "/v1/explain", `{"q":[3,3],"weights":[[0.75,0.25]]}`)
	wantGolden(t, rec, http.StatusOK,
		`{"epoch":0,"explanations":[[{"id":0,"point":[1,8],"score":2.75},{"id":1,"point":[2,5],"score":2.75}]]}`+"\n")
}

func TestServeStatsAndHealth(t *testing.T) {
	h := serveTestHandler(t)
	post(t, h, "/v1/topk", `{"w":[0.25,0.75],"k":3}`)
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var stats struct {
		Epoch     uint64 `json:"epoch"`
		Live      int    `json:"live"`
		Endpoints map[string]struct {
			Count int64 `json:"count"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if stats.Live != 5 {
		t.Fatalf("live = %d, want 5", stats.Live)
	}
	if stats.Endpoints["topk"].Count != 1 {
		t.Fatalf("topk count = %d, want 1", stats.Endpoints["topk"].Count)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

func TestServeQueryTimeout(t *testing.T) {
	// A 1ns query timeout expires before any engine work happens; the
	// handler must answer 503 with the machine-readable code, and the
	// cancellation must show up in /v1/stats.
	ix, err := wqrtq.NewIndex([][]float64{
		{1, 8}, {2, 5}, {4, 3}, {8, 2}, {9, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := newServeHandler(e, time.Nanosecond)

	rec := post(t, h, "/v1/whynot",
		`{"q":[3,3],"k":2,"weights":[[0.25,0.75],[0.75,0.25],[0.5,0.5]],"samples":64,"seed":1}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body not JSON: %s", rec.Body.String())
	}
	if body.Code != "deadline_exceeded" {
		t.Fatalf("code %q, want deadline_exceeded", body.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	var stats struct {
		Canceled  int64 `json:"canceled"`
		Endpoints map[string]struct {
			Canceled int64 `json:"canceled"`
		} `json:"endpoints"`
	}
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if stats.Canceled < 1 {
		t.Fatalf("stats canceled = %d, want >= 1", stats.Canceled)
	}
	if stats.Endpoints["whynot"].Canceled < 1 {
		t.Fatalf("whynot canceled = %d, want >= 1", stats.Endpoints["whynot"].Canceled)
	}
}

// serveErrorCases are bodies each route must refuse with 400 and an error
// that mentions wantErr. FuzzDecodeBody seeds from them too.
var serveErrorCases = []struct {
	name, path, body, wantErr string
}{
	{"bad dimension", "/v1/topk", `{"w":[0.2,0.3,0.5],"k":3}`, "dimension"},
	{"k zero", "/v1/topk", `{"w":[0.5,0.5],"k":0}`, "k must be positive"},
	{"k negative rtopk", "/v1/rtopk", `{"q":[3,3],"k":-1,"weights":[[0.5,0.5]]}`, "k must be positive"},
	{"malformed body", "/v1/topk", `{"w":[0.5`, "malformed request body"},
	{"not json", "/v1/rank", `hello`, "malformed request body"},
	{"empty weights", "/v1/rtopk", `{"q":[3,3],"k":2,"weights":[]}`, "empty weighting vector set"},
	{"bad weight sum", "/v1/topk", `{"w":[0.9,0.9],"k":1}`, "sum"},
	{"bad query dim", "/v1/rank", `{"w":[0.5,0.5],"q":[1,2,3]}`, "dimension"},
	{"insert bad dim", "/v1/insert", `{"point":[1]}`, "dimension"},
	{"delete missing id", "/v1/delete", `{}`, "missing id"},
	{"delete out of range", "/v1/delete", `{"id":99}`, "out of range"},
	{"whynot k zero", "/v1/whynot", `{"q":[3,3],"k":0,"weights":[[0.5,0.5]]}`, "k must be positive"},
	{"oversized body", "/v1/topk",
		`{"w":[0.5,0.5],"k":1,"pad":"` + strings.Repeat("x", 9<<20) + `"}`,
		"request body too large"},
	{"fractional k", "/v1/topk", `{"w":[0.5,0.5],"k":2.5}`, "malformed request body"},
	{"string in weights", "/v1/rtopk", `{"q":[3,3],"k":2,"weights":[[0.5,"0.5"]]}`, "malformed request body"},
	{"out-of-range weight", "/v1/rtopk", `{"q":[3,3],"k":2,"weights":[[0.5,1e400]]}`, "number 1e400 out of range"},
}

func TestServeErrorPaths(t *testing.T) {
	h := serveTestHandler(t)
	for _, tc := range serveErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.path, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body.String())
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body not JSON: %s", rec.Body.String())
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}

	// Wrong method on a POST route.
	req := httptest.NewRequest(http.MethodGet, "/v1/topk", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/topk status %d, want 405", rec.Code)
	}
	// Unknown route.
	req = httptest.NewRequest(http.MethodPost, "/v1/nope", strings.NewReader("{}"))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/nope status %d, want 404", rec.Code)
	}
}

// TestServeBodyDecoding pins what the body decoder accepts on the routes:
// an unknown field holding nested objects and arrays of mixed types is
// skipped, "K" names k as "k" does, and a Content-Length past
// maxBodyBytes is not taken as the size of the body (a buffer presized to
// the claim of 1 TiB would not be allocated).
func TestServeBodyDecoding(t *testing.T) {
	h := serveTestHandler(t)
	const topk = `{"epoch":0,"result":[{"id":4,"point":[9,1],"score":3},{"id":2,"point":[4,3],"score":3.25},{"id":3,"point":[8,2],"score":3.5}]}` + "\n"
	wantGolden(t, post(t, h, "/v1/topk", `{"w":[0.25,0.75],"k":3}`), http.StatusOK, topk)
	wantGolden(t, post(t, h, "/v1/topk", `{"w":[0.25,0.75],"K":3}`), http.StatusOK, topk)
	wantGolden(t, post(t, h, "/v1/topk",
		`{"extra":{"a":[1,"x",{"b":null,"c":[true,false]}],"d":-2.5e3},"w":[0.25,0.75],"more":[[],{},"\u00e9",null],"k":3}`),
		http.StatusOK, topk)
	wantGolden(t, post(t, h, "/v1/rtopk",
		`{"q":[3,3],"pad":[{"x":[1,[2,[3]]]},"y",0],"k":2,"weights":[[0.25,0.75],[0.75,0.25],[0.5,0.5]]}`),
		http.StatusOK, `{"epoch":0,"result":[0,2],"rta":{"evaluated":2,"pruned":1,"candidate_set_size":5}}`+"\n")

	req := httptest.NewRequest(http.MethodPost, "/v1/topk", strings.NewReader(`{"w":[0.25,0.75],"k":3}`))
	req.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantGolden(t, rec, http.StatusOK, topk)
}

// TestServeDisconnectsStalledHeader asserts the listener `wqrtq serve`
// builds drops a client that stops sending mid-header once
// readHeaderTimeout passes, while a complete request on the same listener
// is still answered.
func TestServeDisconnectsStalledHeader(t *testing.T) {
	ts := httptest.NewUnstartedServer(nil)
	ts.Config = newHTTPServer("", serveTestHandler(t))
	ts.Start()
	defer ts.Close()

	// Taken before the dial: the server arms its header deadline when it
	// accepts, which a loaded machine can schedule ahead of this goroutine's
	// next line, and the lower bound below must not race that.
	start := time.Now()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/topk HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("complete request beside a stalled one: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// The server closes the stalled connection: the read ends with EOF (or
	// a reset) well before the guard deadline, and not before the timeout.
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("stalled connection still open %v after the partial header", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout {
		t.Fatalf("connection dropped after %v, before readHeaderTimeout %v", waited, readHeaderTimeout)
	}
}

// TestServeValidationStatusCodes asserts the typed-error mapping: request
// validation failures (negative or malformed weights and points) answer
// 400, and a closed engine answers 503 rather than a client-fault code.
func TestServeValidationStatusCodes(t *testing.T) {
	h := serveTestHandler(t)
	badInputs := []struct{ name, path, body string }{
		{"negative weight", "/v1/topk", `{"w":[-0.5,1.5],"k":1}`},
		{"negative weight rank", "/v1/rank", `{"w":[-1,2],"q":[3,3]}`},
		{"negative point", "/v1/rank", `{"w":[0.5,0.5],"q":[-3,3]}`},
		{"negative point rtopk", "/v1/rtopk", `{"q":[-1,-1],"k":2,"weights":[[0.5,0.5]]}`},
		{"negative insert", "/v1/insert", `{"point":[-1,2]}`},
		{"weight sum", "/v1/explain", `{"q":[3,3],"weights":[[0.3,0.3]]}`},
		{"explain point dimension", "/v1/explain", `{"q":[3,3,3],"weights":[[0.5,0.5]]}`},
		{"explain empty weights", "/v1/explain", `{"q":[3,3],"weights":[]}`},
		{"whynot weight dimension", "/v1/whynot", `{"q":[3,3],"k":2,"weights":[[0.2,0.3,0.5]]}`},
		{"whynot negative point", "/v1/whynot", `{"q":[-3,3],"k":2,"weights":[[0.5,0.5]]}`},
		// q dominates the dataset, so nothing is missing and no refinement
		// runs: the options are rejected all the same.
		{"whynot negative samples, nothing missing", "/v1/whynot", `{"q":[0,0],"k":2,"weights":[[0.5,0.5]],"samples":-1}`},
	}
	for _, tc := range badInputs {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, h, tc.path, tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestServeClosedEngine503 asserts that a request hitting a closed engine
// maps to 503 (server-side condition), not 400 (client fault).
func TestServeClosedEngine503(t *testing.T) {
	ix, err := wqrtq.NewIndex([][]float64{{1, 8}, {2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := newServeHandler(e, 0)
	e.Close()
	rec := post(t, h, "/v1/topk", `{"w":[0.5,0.5],"k":1}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", rec.Code, rec.Body.String())
	}
}

// TestServeHealthEndpoint pins the /v1/health contract on a healthy
// engine: 200 with live, ready and not degraded.
func TestServeHealthEndpoint(t *testing.T) {
	h := serveTestHandler(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantGolden(t, rec, http.StatusOK, `{"live":true,"ready":true,"degraded":false}`+"\n")
}

// TestServeOverloaded503 has the admission controller shed a run of
// queries (its InjectErrors hook) and asserts the shed surface: 503 with a
// Retry-After header and the machine-readable overloaded/fault_injected
// body, while the requests before the run answer 200.
func TestServeOverloaded503(t *testing.T) {
	ix, err := wqrtq.NewIndex([][]float64{
		{1, 8}, {2, 5}, {4, 3}, {8, 2}, {9, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{
		Admission: true,
		CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := newServeHandler(e, 0)

	var ok, shed int
	for i := 0; i < 12; i++ {
		if i == 8 {
			e.Admission().InjectErrors(4) // the last four requests shed
		}
		rec := post(t, h, "/v1/rtopk", `{"q":[3,3],"k":2,"weights":[[0.25,0.75],[0.75,0.25]]}`)
		switch rec.Code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			if ra := rec.Header().Get("Retry-After"); ra == "" {
				t.Fatalf("shed response missing Retry-After; body %s", rec.Body.String())
			}
			var body struct {
				Error  string `json:"error"`
				Code   string `json:"code"`
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("shed body not JSON: %s", rec.Body.String())
			}
			if body.Code != "overloaded" || body.Reason != "fault_injected" {
				t.Fatalf("shed body code=%q reason=%q, want overloaded/fault_injected", body.Code, body.Reason)
			}
		default:
			t.Fatalf("status %d; body %s", rec.Code, rec.Body.String())
		}
	}
	if ok != 8 || shed != 4 {
		t.Fatalf("want 8 answered and 4 shed, got ok %d, shed %d", ok, shed)
	}
}

// TestServeDegraded503 drives the engine read-only through persistent WAL
// failures and asserts the full degraded surface: mutations answer 503
// with the degraded/wal_append body and a Retry-After header, queries keep
// answering 200 from the snapshot, and /v1/health stays 200 (in rotation)
// while reporting the degradation.
func TestServeDegraded503(t *testing.T) {
	fs := storage.NewFaultFS()
	ix, err := wqrtq.NewIndex([][]float64{
		{1, 8}, {2, 5}, {4, 3}, {8, 2}, {9, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{
		DataDir:         "data",
		FS:              fs,
		CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := newServeHandler(e, 0)

	fs.InjectFailures(1 << 30) // every write fails: retries exhaust, engine degrades

	rec := post(t, h, "/v1/insert", `{"point":[1,1]}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("insert status %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatalf("degraded response missing Retry-After; body %s", rec.Body.String())
	}
	var body struct {
		Error  string `json:"error"`
		Code   string `json:"code"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("degraded body not JSON: %s", rec.Body.String())
	}
	if body.Code != "degraded" || body.Reason != "wal_append" {
		t.Fatalf("degraded body code=%q reason=%q, want degraded/wal_append", body.Code, body.Reason)
	}

	// Read-only mode is the feature, not the failure: queries still answer.
	rec = post(t, h, "/v1/topk", `{"w":[0.25,0.75],"k":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("query on degraded engine: status %d; body %s", rec.Code, rec.Body.String())
	}

	// Health: still live and ready (in rotation), visibly degraded.
	req := httptest.NewRequest(http.MethodGet, "/v1/health", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, req)
	wantGolden(t, hrec, http.StatusOK, `{"live":true,"ready":true,"degraded":true,"reason":"wal_append"}`+"\n")
}

// TestServeKernelStats pins the kernel section of /v1/stats: the
// blocked-sweep counters are populated after a reverse top-k that a cell
// grid answers. k = 1 keeps 4k below the five points, so the skyline band
// is built and holds a grid (a pass-through band holds none). (That the
// kernel and its references answer bit-identically is kernel_test.go's
// job, in package wqrtq.)
func TestServeKernelStats(t *testing.T) {
	h := serveTestHandler(t)
	rec := post(t, h, "/v1/rtopk", `{"q":[3,4],"k":1,"weights":[[0.25,0.75],[0.5,0.5],[0.75,0.25]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("rtopk status %d; body %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var st struct {
		Kernel struct {
			Blocks int64 `json:"blocks"`
		} `json:"kernel"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	if st.Kernel.Blocks < 1 {
		t.Fatalf("kernel stats not populated after an rtopk: blocks=%d", st.Kernel.Blocks)
	}
}

// TestServeCarryStats pins the skyband and cellindex sections of /v1/stats
// across mutations: an insert every band member dominates is carried (no
// build on the next read), a delete of a band member drops that band and
// its grid, and the next read rebuilds both. The grid lives on its band,
// so the band's counters report its carry, and a read of a held band —
// grid included — is a skyband hit.
func TestServeCarryStats(t *testing.T) {
	pts := make([][]float64, 0, 36)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			pts = append(pts, []float64{float64(1 + i), float64(1 + j)})
		}
	}
	ix, err := wqrtq.NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := newServeHandler(e, 0)
	sections := func() string {
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var st struct {
			Skyband   json.RawMessage `json:"skyband"`
			CellIndex json.RawMessage `json:"cellindex"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("stats not JSON: %v", err)
		}
		return string(st.Skyband) + "\n" + string(st.CellIndex)
	}
	want := func(step, golden string) {
		t.Helper()
		if got := sections(); got != golden {
			t.Fatalf("%s\n got: %s\nwant: %s", step, got, golden)
		}
	}
	rtopk := func() {
		t.Helper()
		if rec := post(t, h, "/v1/rtopk", `{"q":[1.5,1.5],"k":2,"weights":[[0.25,0.75],[0.5,0.5]]}`); rec.Code != http.StatusOK {
			t.Fatalf("rtopk: %d %s", rec.Code, rec.Body.String())
		}
	}
	rtopk()
	want("first read builds the 2-band and its grid", `{"bands":1,"points":3,"builds":1,"hits":0,"fallbacks":0,"carried":0,"dropped":0,"declines":0,"trim_refused_k":0,"trim_refused_dataset":0,"trim_refused_band":0}
{"grids":1,"cells":128,"candidates":260,"builds":1,"fallbacks":0,"lookups":2}`)
	post(t, h, "/v1/insert", `{"point":[9,9]}`)
	rtopk()
	want("dominated insert is carried", `{"bands":1,"points":3,"builds":1,"hits":1,"fallbacks":0,"carried":1,"dropped":0,"declines":0,"trim_refused_k":0,"trim_refused_dataset":0,"trim_refused_band":0}
{"grids":1,"cells":128,"candidates":260,"builds":1,"fallbacks":0,"lookups":4}`)
	post(t, h, "/v1/delete", `{"id":0}`) // (1,1), the skyline
	want("member delete drops band and grid", `{"bands":0,"points":0,"builds":1,"hits":1,"fallbacks":0,"carried":1,"dropped":1,"declines":0,"trim_refused_k":0,"trim_refused_dataset":0,"trim_refused_band":0}
{"grids":0,"cells":0,"candidates":0,"builds":1,"fallbacks":0,"lookups":4}`)
	rtopk()
	want("next read rebuilds both", `{"bands":1,"points":4,"builds":2,"hits":1,"fallbacks":0,"carried":1,"dropped":1,"declines":0,"trim_refused_k":0,"trim_refused_dataset":0,"trim_refused_band":0}
{"grids":1,"cells":128,"candidates":262,"builds":2,"fallbacks":0,"lookups":6}`)
}

// routeStats is what the refinement tests read of /v1/stats: kernel.refine
// verbatim, and the skyband section's reasons for a refused trim.
type routeStats struct {
	Kernel struct {
		Refine json.RawMessage `json:"refine"`
	} `json:"kernel"`
	Skyband struct {
		Declines           int64 `json:"declines"`
		TrimRefusedK       int64 `json:"trim_refused_k"`
		TrimRefusedDataset int64 `json:"trim_refused_dataset"`
		TrimRefusedBand    int64 `json:"trim_refused_band"`
	} `json:"skyband"`
}

func getRouteStats(t *testing.T, h http.Handler) routeStats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st routeStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	return st
}

// TestServeWhyNotWideDataset answers a why-not question over HTTP on
// household-like d = 6 data — past the dimensionality where the refinement
// loops used to leave the universe: 200, every field equal to the
// in-process answer, and /v1/stats showing one universe swept by every
// sample loop.
func TestServeWhyNotWideDataset(t *testing.T) {
	ds := dataset.HouseholdLike(500, 7)
	wl, err := dataset.MakeWhyNot(ds, 3, 12, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := wqrtq.NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := wqrtq.NewIndex(pts) // same data, same epoch, its own counters
	if err != nil {
		t.Fatal(err)
	}
	inproc, err := twin.WhyNotCtx(t.Context(), wqrtq.WhyNotRequest{Q: wl.Q, K: wl.K, W: [][]float64{wl.Wm[0]},
		Opts: wqrtq.Options{SampleSize: 24, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(whyNotJSON(0, inproc.Answer))
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := newServeHandler(e, 0)
	body, err := json.Marshal(map[string]any{"q": wl.Q, "k": wl.K, "weights": [][]float64{wl.Wm[0]}, "samples": 24, "seed": 3})
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, post(t, h, "/v1/whynot", string(body)), http.StatusOK, string(want)+"\n")
	if len(inproc.Answer.Missing) != 1 {
		t.Fatalf("the why-not vector is not missing: %+v", inproc.Answer)
	}
	const golden = `{"universes":1,"universe_points":499,"trimmed_points":0,"evals_trimmed":0,"evals_untrimmed":25,"samples_drawn":600,"samples_kept":2,"points_skipped":0,"points_capped":24}`
	if got := string(getRouteStats(t, h).Kernel.Refine); got != golden {
		t.Fatalf("kernel.refine\n got: %s\nwant: %s", got, golden)
	}
}

// TestServeReverseTopKWideDataset answers a reverse top-k over HTTP on
// NBA-like d = 13 data, where no cell grid exists and every vector is one
// count descent over the band tree: 200, body byte-equal to the in-process
// answer, and an "rta" block that says so — evaluated is the size of the
// result, pruned the descents stopped at their k-th beater, and the
// candidate set the 10-skyband.
func TestServeReverseTopKWideDataset(t *testing.T) {
	const k = 10
	ds := dataset.NBALike(2000, 7)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := wqrtq.NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := wqrtq.NewIndex(pts) // same data, same epoch, its own counters
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	W := make([][]float64, 60)
	for i := range W {
		W[i] = sample.RandSimplex(rng, ds.Dim)
	}
	top, err := twin.TopK(W[0], k)
	if err != nil {
		t.Fatal(err)
	}
	q := top[k/2].Point // mid-ranked under W[0]: in some of the 60 top-k sets, not all
	inproc, err := twin.ReverseTopKCtx(t.Context(), wqrtq.ReverseTopKRequest{Q: q, K: k, W: W})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Epoch  uint64         `json:"epoch"`
		Result []int          `json:"result"`
		RTA    wqrtq.RTAStats `json:"rta"`
	}{0, inproc.Result, inproc.RTA})
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := newServeHandler(e, 0)
	body, err := json.Marshal(map[string]any{"q": q, "k": k, "weights": W})
	if err != nil {
		t.Fatal(err)
	}
	wantGolden(t, post(t, h, "/v1/rtopk", string(body)), http.StatusOK, string(want)+"\n")
	const golden = `"rta":{"evaluated":19,"pruned":41,"candidate_set_size":1104}}`
	if !strings.HasSuffix(string(want), golden) || inproc.RTA.Evaluated != len(inproc.Result) {
		t.Fatalf("rta block\n got: %s\nwant suffix: %s", want, golden)
	}
}

// TestServeRefineRouteStats pins what /v1/stats says about how a why-not's
// refinement samples were ranked: one call-fixed universe per request,
// every sample loop (MWK at q, which is also MQWK's point 0, and MQWK at
// each of the |Q| box points the penalty budget did not skip) sweeping it,
// and — on a dataset this small — the band trim
// refused for the dataset's size, with the reason counted in the skyband
// section.
func TestServeRefineRouteStats(t *testing.T) {
	pts := make([][]float64, 0, 400)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			pts = append(pts, []float64{float64(1 + i), float64(1 + j)})
		}
	}
	ix, err := wqrtq.NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	h := newServeHandler(e, 0)
	if rec := post(t, h, "/v1/whynot", `{"q":[4.5,4.5],"k":3,"weights":[[0.25,0.75]],"samples":6,"seed":3}`); rec.Code != http.StatusOK {
		t.Fatalf("whynot: %d %s", rec.Code, rec.Body.String())
	}
	st := getRouteStats(t, h)
	const golden = `{"universes":1,"universe_points":144,"trimmed_points":0,"evals_trimmed":0,"evals_untrimmed":5,"samples_drawn":30,"samples_kept":3,"points_skipped":2,"points_capped":4}`
	if got := string(st.Kernel.Refine); got != golden {
		t.Fatalf("kernel.refine\n got: %s\nwant: %s", got, golden)
	}
	if sb := st.Skyband; sb.TrimRefusedDataset != 1 || sb.TrimRefusedK != 0 || sb.TrimRefusedBand != 0 || sb.Declines != 0 {
		t.Fatalf("skyband refusal counters: %+v", sb)
	}
}
