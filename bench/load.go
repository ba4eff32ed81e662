package main

// The load generator: a closed loop of spec.Clients goroutines, each on a
// keep-alive connection. A client sends its next op only after the previous
// answer's last byte, as an analyst tool would.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// keepEvery is the stride at which rtopk response bodies are kept for the
// oracle; whynot and mutation bodies are always kept (the first feeds the
// refinement checks, the second the mutation log).
const keepEvery = 50

// opResult is what one op left behind. Times are nanoseconds since the
// window's start; wrote and first are set only on a traced op.
type opResult struct {
	op     *op
	client int
	idx    int
	traced bool
	start  int64
	wrote  int64 // request fully written
	first  int64 // first response byte
	end    int64 // last response byte
	status int   // 0: transport error
	reqB   int
	respB  int
	body   []byte // kept response body, nil otherwise
	failed string // why the op counts as failed, "" if it does not
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// client is one closed-loop caller. It persists across windows so the ids
// its inserts were assigned stay available to its deletes.
type client struct {
	id   int
	plan *plan
	hc   *http.Client
	base string
	next int   // next op of plan.clients[id]
	own  []int // ids inserted and not yet deleted, oldest first
	buf  []byte
	resp bytes.Buffer
}

// do sends one op and returns its opResult. t0 is the window start.
func (c *client) do(ctx context.Context, o *op, idx int, t0 time.Time, traced, keep bool) opResult {
	s := opResult{op: o, client: c.id, idx: idx, traced: traced}
	delID := -1
	if o.Kind == opDelete {
		if len(c.own) == 0 {
			s.failed = "delete with no inserted id to remove"
			return s
		}
		delID = c.own[0]
	}
	c.buf = c.plan.body(o, c.buf, delID)
	s.reqB = len(c.buf)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+o.Kind.String(), bytes.NewReader(c.buf))
	if err != nil {
		s.failed = err.Error()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	// The transport calls the hooks from its own goroutines.
	var wrote, first atomic.Int64
	if traced {
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(t0))) },
			GotFirstResponseByte: func() { first.Store(int64(time.Since(t0))) },
		}))
	}
	s.start = int64(time.Since(t0))
	resp, err := c.hc.Do(req)
	if err != nil {
		s.end = int64(time.Since(t0))
		s.failed = err.Error()
		c.buf = nil // the transport may still be reading it
		return s
	}
	c.resp.Reset()
	_, err = io.Copy(&c.resp, resp.Body)
	resp.Body.Close()
	s.end = int64(time.Since(t0))
	s.wrote, s.first = wrote.Load(), first.Load()
	s.status = resp.StatusCode
	s.respB = c.resp.Len()
	switch {
	case err != nil:
		s.failed = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.failed = "status " + resp.Status + ": " + firstLine(c.resp.Bytes())
		c.buf = nil // a refused request's body may not have been consumed
	}
	if s.failed != "" {
		return s
	}
	if keep || o.Kind != opRTopK {
		s.body = bytes.Clone(c.resp.Bytes())
	}
	switch o.Kind {
	case opInsert:
		var ack struct {
			ID *int `json:"id"`
		}
		if json.Unmarshal(s.body, &ack) != nil || ack.ID == nil {
			s.failed = "insert ack without id"
		} else {
			c.own = append(c.own, *ack.ID)
		}
	case opDelete:
		c.own = c.own[1:]
	}
	return s
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// window is one measured stretch: every client runs its list until d has
// passed (or the list ends). With traceHalf, a pseudo-random half of each
// client's ops is traced, so traced and untraced ops are two samples of one
// stream under one state of the server and the host. (Not every other op:
// the mixed workload's mutations all have odd indexes.)
type window struct {
	samples []opResult
	dur     time.Duration // no op starts after it
}

func runWindow(ctx context.Context, clients []*client, d time.Duration, traceHalf bool) window {
	t0 := time.Now()
	per := make([][]opResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			ops := c.plan.clients[c.id]
			for c.next < len(ops) && time.Since(t0) < d && ctx.Err() == nil {
				idx := c.next
				c.next++
				per[i] = append(per[i], c.do(ctx, &ops[idx], idx, t0, traceHalf && uint32(idx)*2654435761>>31 == 1, idx%keepEvery == 0))
			}
		}(i, c)
	}
	wg.Wait()
	w := window{dur: min(d, time.Since(t0))} // shorter only if the lists ran out first
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	return w
}

// runList sends ops one after another on one client, outside any window:
// warm-up and the durable workload's verification reads.
func runList(ctx context.Context, c *client, ops []op) []opResult {
	t0 := time.Now()
	out := make([]opResult, len(ops))
	for i := range ops {
		out[i] = c.do(ctx, &ops[i], i, t0, false, true)
	}
	return out
}

// span is one traced interval. The spans of one op share (client, op); the
// children http.send / http.wait / http.read name their http.roundtrip
// parent.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"` // 0: root
	Name    string `json:"name"`
	Client  int    `json:"client"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spans materializes the traced ops' spans from the recorded timestamps.
func (w window) spans() []span {
	var out []span
	id := int64(0)
	for _, s := range w.samples {
		if !s.traced {
			continue
		}
		id++
		root := id
		out = append(out, span{root, 0, "http.roundtrip", s.client, s.idx, s.start, s.end})
		if s.wrote == 0 || s.first == 0 {
			continue
		}
		// A server may answer before it has read the whole request; the
		// send span then ends where the wait would start.
		wrote := min(s.wrote, s.first)
		for _, ch := range [...]struct {
			name     string
			from, to int64
		}{{"http.send", s.start, wrote}, {"http.wait", wrote, s.first}, {"http.read", s.first, s.end}} {
			id++
			out = append(out, span{id, root, ch.name, s.client, s.idx, ch.from, ch.to})
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
