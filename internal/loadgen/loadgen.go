// Package loadgen is an open-loop load generator for the serving stack.
//
// Open-loop means arrivals are scheduled on a fixed clock — request n
// fires at start + n/rate — independent of how fast earlier requests
// complete. This is the property that makes an overload experiment
// honest: a closed loop (issue, wait, issue) self-throttles exactly when
// the server slows down, hiding the queueing collapse the experiment is
// trying to measure. Under open-loop arrivals a server past saturation
// accumulates in-flight work without bound unless something sheds, which
// is precisely the behavior the admission-control ablation compares.
//
// The generator drives an abstract Target func, so the same harness runs
// against an in-process engine (unit tests, RECORD_BENCH) or a live HTTP
// server (`wqrtq bench`). A Classify hook buckets each completion into
// goodput, shed or failure — the three series every report carries.
package loadgen

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Kind is the request class the generator draws for each arrival.
type Kind int

const (
	// Query is a read (reverse top-k or similar).
	Query Kind = iota
	// Mutation is a write (insert or delete).
	Mutation
)

// String returns "query" or "mutation".
func (k Kind) String() string {
	if k == Mutation {
		return "mutation"
	}
	return "query"
}

// Outcome buckets one completed request.
type Outcome int

const (
	// OK: the request was served; counts toward goodput.
	OK Outcome = iota
	// Shed: the server rejected it at the door (admission, degraded). Shed work is cheap by design and tracked separately.
	Shed
	// Failed: an unexpected error — transport failure, 5xx that is not a
	// shed, malformed response.
	Failed
)

// Config parameterizes one run.
type Config struct {
	// Rate is the offered arrival rate in requests per second. Required.
	Rate float64
	// Duration is how long arrivals are generated; the run then drains
	// in-flight requests. Required.
	Duration time.Duration
	// MutationFrac in [0,1] is the fraction of arrivals drawn as
	// mutations (0 = pure query load).
	MutationFrac float64
	// Seed feeds the kind-mixing RNG; runs with equal seeds draw the
	// same arrival sequence.
	Seed int64
	// Target performs one request of the given kind and returns its
	// error (nil = served). Required. Called from many goroutines.
	Target func(Kind) error
	// Classify buckets a Target error. Nil defaults to: nil error OK,
	// anything else Failed.
	Classify func(error) Outcome
	// MaxInFlight caps concurrently outstanding requests (0 = no cap).
	// An uncapped open loop against a stalled server manufactures
	// goroutines without bound; the cap models a finite client fleet
	// while preserving open-loop arrivals — arrivals past the cap are
	// counted as Lost, not silently delayed.
	MaxInFlight int
}

// LatencyStats summarizes one kind's served-request latencies.
type LatencyStats struct {
	Count      int64 `json:"count"`
	P50Micros  int64 `json:"p50_micros"`
	P99Micros  int64 `json:"p99_micros"`
	P999Micros int64 `json:"p999_micros"`
	MaxMicros  int64 `json:"max_micros"`
}

// Report is the result of one run.
type Report struct {
	// Offered counts generated arrivals; Lost counts arrivals dropped
	// client-side at the MaxInFlight cap (never sent).
	Offered int64 `json:"offered"`
	Lost    int64 `json:"lost"`
	// Served/Shed/Failed partition the sent requests by outcome.
	Served int64 `json:"served"`
	Shed   int64 `json:"shed"`
	Failed int64 `json:"failed"`
	// ElapsedSeconds covers arrival generation plus drain.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// GoodputPerSec is served requests per second of elapsed time;
	// ShedFraction is shed / sent.
	GoodputPerSec float64 `json:"goodput_per_sec"`
	ShedFraction  float64 `json:"shed_fraction"`
	// Latency histograms of served requests, by kind.
	QueryLatency    LatencyStats `json:"query_latency"`
	MutationLatency LatencyStats `json:"mutation_latency"`
}

// collector accumulates per-request outcomes under one mutex; the
// contended section is two counter bumps and an append.
type collector struct {
	mu     sync.Mutex
	served int64
	shed   int64
	failed int64
	lats   [2][]time.Duration // served latencies, indexed by Kind
}

func (c *collector) record(k Kind, d time.Duration, o Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch o {
	case OK:
		c.served++
		c.lats[k] = append(c.lats[k], d)
	case Shed:
		c.shed++
	default:
		c.failed++
	}
}

// quantiles summarizes a served-latency series. Sorting a copy keeps the
// collector reusable; n is small (one entry per served request).
func quantiles(ls []time.Duration) LatencyStats {
	var st LatencyStats
	st.Count = int64(len(ls))
	if len(ls) == 0 {
		return st
	}
	s := make([]time.Duration, len(ls))
	copy(s, ls)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(s)-1))
		return s[i].Microseconds()
	}
	st.P50Micros = at(0.50)
	st.P99Micros = at(0.99)
	st.P999Micros = at(0.999)
	st.MaxMicros = s[len(s)-1].Microseconds()
	return st
}

// Run generates arrivals for cfg.Duration, waits out the in-flight tail,
// and returns the report.
func Run(cfg Config) (*Report, error) {
	if cfg.Rate <= 0 {
		return nil, errors.New("loadgen: Rate must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, errors.New("loadgen: Duration must be positive")
	}
	if cfg.Target == nil {
		return nil, errors.New("loadgen: Target is required")
	}
	classify := cfg.Classify
	if classify == nil {
		classify = func(err error) Outcome {
			if err == nil {
				return OK
			}
			return Failed
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	col := &collector{}
	var wg sync.WaitGroup
	var sem chan struct{}
	if cfg.MaxInFlight > 0 {
		sem = make(chan struct{}, cfg.MaxInFlight)
	}
	var offered, lost int64
	start := time.Now()
	for n := int64(0); ; n++ {
		due := start.Add(time.Duration(n) * interval)
		if due.Sub(start) >= cfg.Duration {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		offered++
		kind := Query
		if cfg.MutationFrac > 0 && rng.Float64() < cfg.MutationFrac {
			kind = Mutation
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				lost++ // client fleet exhausted; open-loop arrival dropped
				continue
			}
		}
		wg.Add(1)
		go func(k Kind) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			s := time.Now()
			err := cfg.Target(k)
			col.record(k, time.Since(s), classify(err))
		}(kind)
	}
	wg.Wait()
	elapsed := time.Since(start)

	col.mu.Lock()
	defer col.mu.Unlock()
	r := &Report{
		Offered:        offered,
		Lost:           lost,
		Served:         col.served,
		Shed:           col.shed,
		Failed:         col.failed,
		ElapsedSeconds: elapsed.Seconds(),
	}
	if elapsed > 0 {
		r.GoodputPerSec = float64(col.served) / elapsed.Seconds()
	}
	if sent := col.served + col.shed + col.failed; sent > 0 {
		r.ShedFraction = float64(col.shed) / float64(sent)
	}
	r.QueryLatency = quantiles(col.lats[Query])
	r.MutationLatency = quantiles(col.lats[Mutation])
	return r, nil
}
