package main

// The `wqrtq serve` subcommand: JSON-over-HTTP access to the concurrent
// serving engine. Queries and mutations share one wqrtq.Engine, so inserts
// and deletes proceed under snapshot isolation while query traffic runs;
// every response carries the epoch of the snapshot that produced it.
//
// Endpoints (request/response bodies are JSON):
//
//	POST /v1/topk    {"w":[...],"k":n}            → {"epoch":e,"result":[{"id","point","score"},...]}
//	POST /v1/rank    {"w":[...],"q":[...]}        → {"epoch":e,"rank":r}
//	POST /v1/rtopk   {"q":[...],"k":n,"weights":[[...],...]} → {"epoch":e,"result":[i,...]}
//	POST /v1/explain {"q":[...],"weights":[[...],...]}       → {"epoch":e,"explanations":[[...],...]}
//	POST /v1/whynot  {"q":[...],"k":n,"weights":[[...]],"samples":s,"seed":d} → full answer
//	POST /v1/insert  {"point":[...]}              → {"epoch":e,"id":i}
//	POST /v1/delete  {"id":i}                     → {"epoch":e,"deleted":b}
//	GET  /v1/stats                                → engine counters
//	GET  /v1/health                               → {"live","ready","degraded","reason"}
//	GET  /healthz                                 → 200 ok
//
// Errors are {"error":"..."} with status 400 (bad input) or 405/404 from
// the router. Every query handler derives its context from the incoming
// request — bounded by -query-timeout when set — so a client disconnect or
// an expired deadline cancels the engine work cooperatively:
//
//	deadline exceeded → 503 {"error":"...","code":"deadline_exceeded"}
//	client went away  → 499 {"error":"...","code":"canceled"}
//	shed by admission → 503 {"error":"...","code":"overloaded","reason":"..."} + Retry-After
//	read-only engine  → 503 {"error":"...","code":"degraded","reason":"..."} + Retry-After
//
// Cancellations are counted per endpoint (and in total) in /v1/stats,
// admission and shedding counters under "admission", degradation state
// under "wal".
//
// Every POST route is the same sequence — decode the body, derive the
// request context, call the engine, map the error, encode the answer —
// written once in handlePost; a route is its JSON request shape plus the body
// that calls the engine and shapes the answer. Bodies are read whole, at
// most maxBodyBytes (8 MiB, past the first JSON value too), and decoded in
// one pass by body.go, which accepts exactly what encoding/json would and
// builds the same structs (FuzzDecodeBody); encoding/json only encodes
// answers. The flags size the cache, durability and admission;
// which index structures answer a query is not configurable (the product
// has one path).

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wqrtq"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	data := fs.String("data", "", "dataset CSV path")
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache", 4096, "result cache entries (negative disables)")
	queryTimeout := fs.Duration("query-timeout", 30*time.Second, "per-query deadline (0 disables); expired queries answer 503")
	dataDir := fs.String("data-dir", "", "durable data directory: WAL + snapshots; existing state overrides -data (empty = in-memory)")
	fsync := fs.String("fsync", "always", "WAL sync policy: always (sync per mutation), interval (periodic) or off (sync at rotation/close only)")
	fsyncInterval := fs.Duration("fsync-interval", 0, "sync period under -fsync=interval (0 = default)")
	checkpointBytes := fs.Int64("checkpoint-bytes", 0, "WAL size triggering a background checkpoint (0 = default, negative disables)")
	admissionFlag := fs.String("admission", "on", "admission control (adaptive concurrency + deadline shedding): on (default) or off")
	maxInflight := fs.Int("max-inflight", 0, "admission: hard per-class concurrency ceiling (0 = default)")
	targetLatency := fs.Duration("target-latency", 0, "admission: latency target driving the adaptive window (0 = default)")
	fs.Parse(args)
	if *fsync != "always" && *fsync != "interval" && *fsync != "off" {
		return fmt.Errorf("wqrtq serve: -fsync must be always, interval or off, got %q", *fsync)
	}
	if *admissionFlag != "on" && *admissionFlag != "off" {
		return fmt.Errorf("wqrtq serve: -admission must be on or off, got %q", *admissionFlag)
	}
	var ix *wqrtq.Index
	if *data != "" {
		var err error
		ix, _, err = loadIndex(*data)
		if err != nil {
			return err
		}
	} else if *dataDir == "" {
		return fmt.Errorf("wqrtq serve: need -data (dataset CSV) or -data-dir (durable state)")
	}
	eng, err := wqrtq.NewEngine(ix, wqrtq.EngineConfig{
		CacheSize:              *cacheSize,
		DataDir:                *dataDir,
		Fsync:                  *fsync,
		FsyncInterval:          *fsyncInterval,
		CheckpointBytes:        *checkpointBytes,
		Admission:              *admissionFlag == "on",
		AdmissionMaxInflight:   *maxInflight,
		AdmissionTargetLatency: *targetLatency,
	})
	if err != nil {
		return err
	}
	if w := eng.Stats().WAL; w.Recoveries > 0 {
		fmt.Fprintf(os.Stderr, "wqrtq: recovered durable state from %s (LSN %d, %d WAL records replayed); -data seed ignored\n",
			*dataDir, w.LastLSN, w.ReplayedRecords)
	}
	srv := newHTTPServer(*addr, newServeHandler(eng, *queryTimeout))
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "wqrtq: serving %d points on %s\n", eng.Snapshot().Len(), *addr)
		errCh <- srv.ListenAndServe()
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if cerr := eng.Close(); cerr != nil && err == nil {
			return cerr
		}
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "wqrtq: %v, draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx) // stop accepting, wait for in-flight handlers
	// Then wait out the engine's computations and settle durability; a WAL
	// flush failure at shutdown must not be swallowed.
	if cerr := eng.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Connection read limits. A client that stalls while sending a request is
// disconnected instead of pinning a connection and its goroutine forever;
// a 60 KB reverse top-k body on a slow link still has a minute to arrive.
// They bound reading only: net/http clears the deadline once the body is
// consumed, so a handler's run time stays governed by -query-timeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the http.Server `wqrtq serve` listens with.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// handlePost registers one POST route: decode the JSON body into a Req, bound the
// work by the client connection and the configured per-query deadline,
// call, and answer with the encoded result or the mapped error.
func handlePost[Req any, PReq interface {
	*Req
	requestBody
}](mux *http.ServeMux, path string, queryTimeout time.Duration, call func(context.Context, *Req) (any, error)) {
	mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decodeRequest(w, r, PReq(&req)) {
			return
		}
		ctx := r.Context()
		if queryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, queryTimeout)
			defer cancel()
		}
		out, err := call(ctx, &req)
		if err != nil {
			writeQueryErr(w, err)
			return
		}
		writeJSON(w, out)
	})
}

type (
	topKBody struct {
		W []float64 `json:"w"`
		K int       `json:"k"`
	}
	rankBody struct {
		W []float64 `json:"w"`
		Q []float64 `json:"q"`
	}
	rtopkBody struct {
		Q       []float64   `json:"q"`
		K       int         `json:"k"`
		Weights [][]float64 `json:"weights"`
	}
	explainBody struct {
		Q       []float64   `json:"q"`
		Weights [][]float64 `json:"weights"`
	}
	whyNotBody struct {
		Q       []float64   `json:"q"`
		K       int         `json:"k"`
		Weights [][]float64 `json:"weights"`
		Samples int         `json:"samples"`
		Seed    int64       `json:"seed"`
	}
	insertBody struct {
		Point []float64 `json:"point"`
	}
	deleteBody struct {
		ID *int `json:"id"`
	}
)

// newServeHandler builds the HTTP API around an engine. Every query handler
// derives its context from the request (plus queryTimeout when positive), so
// deadlines and client disconnects cancel engine work. Factored out so tests
// can drive it with httptest.
func newServeHandler(e *wqrtq.Engine, queryTimeout time.Duration) http.Handler {
	mux := http.NewServeMux()
	handlePost(mux, "/v1/topk", queryTimeout, func(ctx context.Context, req *topKBody) (any, error) {
		resp, err := e.TopKCtx(ctx, wqrtq.TopKRequest{W: req.W, K: req.K})
		return struct {
			Epoch  uint64       `json:"epoch"`
			Result []rankedJSON `json:"result"`
		}{resp.Epoch, toRankedJSON(resp.Result)}, err
	})
	handlePost(mux, "/v1/rank", queryTimeout, func(ctx context.Context, req *rankBody) (any, error) {
		resp, err := e.RankCtx(ctx, wqrtq.RankRequest{W: req.W, Q: req.Q})
		return struct {
			Epoch uint64 `json:"epoch"`
			Rank  int    `json:"rank"`
		}{resp.Epoch, resp.Rank}, err
	})
	handlePost(mux, "/v1/rtopk", queryTimeout, func(ctx context.Context, req *rtopkBody) (any, error) {
		resp, err := e.ReverseTopKCtx(ctx, wqrtq.ReverseTopKRequest{Q: req.Q, K: req.K, W: req.Weights})
		return struct {
			Epoch  uint64         `json:"epoch"`
			Result []int          `json:"result"`
			RTA    wqrtq.RTAStats `json:"rta"`
		}{resp.Epoch, orEmpty(resp.Result), resp.RTA}, err
	})
	handlePost(mux, "/v1/explain", queryTimeout, func(ctx context.Context, req *explainBody) (any, error) {
		resp, err := e.ExplainCtx(ctx, wqrtq.ExplainRequest{Q: req.Q, Wm: req.Weights})
		return struct {
			Epoch        uint64         `json:"epoch"`
			Explanations [][]rankedJSON `json:"explanations"`
		}{resp.Epoch, toRankedJSONs(resp.Explanations)}, err
	})
	handlePost(mux, "/v1/whynot", queryTimeout, func(ctx context.Context, req *whyNotBody) (any, error) {
		resp, err := e.WhyNotCtx(ctx, wqrtq.WhyNotRequest{
			Q: req.Q, K: req.K, W: req.Weights,
			Opts: wqrtq.Options{SampleSize: req.Samples, Seed: req.Seed},
		})
		if err != nil {
			return nil, err
		}
		return whyNotJSON(resp.Epoch, resp.Answer), nil
	})
	handlePost(mux, "/v1/insert", queryTimeout, func(_ context.Context, req *insertBody) (any, error) {
		id, epoch, err := e.Insert(req.Point)
		return struct {
			Epoch uint64 `json:"epoch"`
			ID    int    `json:"id"`
		}{epoch, id}, err
	})
	handlePost(mux, "/v1/delete", queryTimeout, func(_ context.Context, req *deleteBody) (any, error) {
		if req.ID == nil {
			return nil, fmt.Errorf("%w: missing id", wqrtq.ErrInvalidArgument)
		}
		deleted, epoch, err := e.Delete(*req.ID)
		return struct {
			Epoch   uint64 `json:"epoch"`
			Deleted bool   `json:"deleted"`
		}{epoch, deleted}, err
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, e.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		// Load-balancer semantics: 200 while queries are servable — a
		// degraded (read-only) engine stays in rotation, that is the point
		// of read-only mode — 503 once the engine is closed. The body
		// carries the full live/ready/degraded breakdown either way.
		h := e.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	return mux
}

type rankedJSON struct {
	ID    int       `json:"id"`
	Point []float64 `json:"point"`
	Score float64   `json:"score"`
}

func toRankedJSON(rs []wqrtq.Ranked) []rankedJSON {
	out := make([]rankedJSON, len(rs))
	for i, r := range rs {
		out[i] = rankedJSON{ID: r.ID, Point: r.Point, Score: r.Score}
	}
	return out
}

func toRankedJSONs(rss [][]wqrtq.Ranked) [][]rankedJSON {
	out := make([][]rankedJSON, len(rss))
	for i, rs := range rss {
		out[i] = toRankedJSON(rs)
	}
	return out
}

// orEmpty makes an empty index list encode as [] instead of null.
func orEmpty(is []int) []int {
	if is == nil {
		return []int{}
	}
	return is
}

func whyNotJSON(epoch uint64, ans *wqrtq.WhyNotAnswer) any {
	type refineQ struct {
		Q       []float64 `json:"q"`
		Penalty float64   `json:"penalty"`
	}
	type refineW struct {
		Wm      [][]float64 `json:"wm"`
		K       int         `json:"k"`
		Penalty float64     `json:"penalty"`
	}
	type refineAll struct {
		Q       []float64   `json:"q"`
		Wm      [][]float64 `json:"wm"`
		K       int         `json:"k"`
		Penalty float64     `json:"penalty"`
	}
	out := struct {
		Epoch        uint64         `json:"epoch"`
		Result       []int          `json:"result"`
		Missing      []int          `json:"missing"`
		RTA          wqrtq.RTAStats `json:"rta"`
		Explanations [][]rankedJSON `json:"explanations"`
		ModifyQuery  *refineQ       `json:"modify_query,omitempty"`
		ModifyPrefs  *refineW       `json:"modify_preferences,omitempty"`
		ModifyAll    *refineAll     `json:"modify_all,omitempty"`
	}{Epoch: epoch, Result: orEmpty(ans.Result), Missing: orEmpty(ans.Missing), RTA: ans.RTA, Explanations: toRankedJSONs(ans.Explanations)}
	if len(ans.Missing) > 0 {
		out.ModifyQuery = &refineQ{Q: ans.ModifiedQuery.Q, Penalty: ans.ModifiedQuery.Penalty}
		out.ModifyPrefs = &refineW{Wm: ans.ModifiedPreferences.Wm, K: ans.ModifiedPreferences.K, Penalty: ans.ModifiedPreferences.Penalty}
		out.ModifyAll = &refineAll{Q: ans.ModifiedAll.Q, Wm: ans.ModifiedAll.Wm, K: ans.ModifiedAll.K, Penalty: ans.ModifiedAll.Penalty}
	}
	return out
}

// maxBodyBytes caps request bodies so a single oversized JSON document
// cannot exhaust server memory.
const maxBodyBytes = 8 << 20

// decodeRequest reads the whole body, at most maxBodyBytes, and decodes it
// into dst (body.go); a failure of either answers 400.
func decodeRequest(w http.ResponseWriter, r *http.Request, dst requestBody) bool {
	b, err := readBody(w, r)
	if err == nil {
		err = decodeBody(b, dst)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{err.Error()})
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// aborted by the client; the response is written only for the log's benefit.
const statusClientClosedRequest = 499

// retryAfterSeconds rounds a retry hint up to the whole seconds the
// Retry-After header speaks, with a floor of 1.
func retryAfterSeconds(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// writeQueryErr maps a query-path error: validation failures (tagged
// wqrtq.ErrInvalidArgument — non-finite or negative weights/points,
// dimension mismatches, bad k) → 400, context deadline → 503, context
// canceled (client went away) → 499, a closed engine → 503
// "engine_closed", anything else — an internal failure, not the client's
// fault — → 500. Overload sheds (admission control) → 503
// "overloaded" and a degraded (read-only) engine refusing a mutation →
// 503 "degraded"; both carry a Retry-After header and a machine-readable
// reason so clients can back off intelligently, and are distinct from
// each other and from a closed engine: overload passes, degradation needs
// an operator, closure is final.
func writeQueryErr(w http.ResponseWriter, err error) {
	var code, reason string
	var status int
	var oe *wqrtq.OverloadError
	var de *wqrtq.DegradedError
	switch {
	case errors.Is(err, wqrtq.ErrInvalidArgument):
		writeErr(w, http.StatusBadRequest, err)
		return
	case errors.As(err, &oe):
		code, status, reason = "overloaded", http.StatusServiceUnavailable, oe.Reason
		w.Header().Set("Retry-After", retryAfterSeconds(oe.RetryAfter))
	case errors.As(err, &de):
		code, status, reason = "degraded", http.StatusServiceUnavailable, de.Reason
		w.Header().Set("Retry-After", retryAfterSeconds(0))
	case errors.Is(err, wqrtq.ErrDegraded):
		code, status = "degraded", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(0))
	case errors.Is(err, context.DeadlineExceeded):
		code, status = "deadline_exceeded", http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		code, status = "canceled", statusClientClosedRequest
	case errors.Is(err, wqrtq.ErrEngineClosed):
		code, status = "engine_closed", http.StatusServiceUnavailable
	default:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error  string `json:"error"`
		Code   string `json:"code"`
		Reason string `json:"reason,omitempty"`
	}{err.Error(), code, reason})
}
