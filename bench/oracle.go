package main

// Oracle checks. All of them run after the measured window, on kept
// response bodies, and mark the opResult failed on a mismatch.

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"

	"wqrtq"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

const (
	// maxNaiveChecks bounds the rtopk responses compared with
	// rtopk.BichromaticNaive per run: one comparison is n·|W| scores
	// (~0.3 s at n = 100 000), so the kept every-50th responses are
	// thinned evenly to this many.
	maxNaiveChecks = 16
	// maxInprocChecks is how many why-not answers are also compared
	// field for field with an in-process Index.WhyNotCtx.
	maxInprocChecks = 20
)

// parallelFor runs fn(0..n-1) on GOMAXPROCS goroutines.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				fn(i)
			}
		}(g)
	}
	wg.Wait()
}

// mutation is one acknowledged insert (point set) or delete (point nil).
// A delete removes its client's oldest live insert, so the log needs no ids.
type mutation struct {
	epoch  uint64
	client int
	point  vec.Point
}

// mutationLog collects the acknowledged mutations of the samples, ordered
// by the epoch of the snapshot each one published.
func mutationLog(samples []opResult) []mutation {
	var log []mutation
	for i := range samples {
		s := &samples[i]
		if !s.op.Kind.isMutation() || s.failed != "" {
			continue
		}
		var ack struct {
			Epoch   uint64 `json:"epoch"`
			Deleted *bool  `json:"deleted"`
		}
		if err := json.Unmarshal(s.body, &ack); err != nil {
			s.failed = "undecodable mutation ack: " + err.Error()
			continue
		}
		if s.op.Kind == opDelete && (ack.Deleted == nil || !*ack.Deleted) {
			s.failed = "delete of an own inserted id not acknowledged as deleted"
			continue
		}
		log = append(log, mutation{ack.Epoch, s.client, s.op.Point})
	}
	sort.Slice(log, func(a, b int) bool { return log[a].epoch < log[b].epoch })
	return log
}

// pointsAt is the point set of the snapshot with the given epoch: the base
// dataset plus every logged mutation published at or before it.
func pointsAt(base []vec.Point, log []mutation, clients int, epoch uint64) []vec.Point {
	live := make([][]vec.Point, clients) // per client, oldest first
	for _, m := range log {
		if m.epoch > epoch {
			break
		}
		if m.point != nil {
			live[m.client] = append(live[m.client], m.point)
		} else {
			live[m.client] = live[m.client][1:]
		}
	}
	pts := slices.Clone(base)
	for _, l := range live {
		pts = append(pts, l...)
	}
	return pts
}

type rtopkResp struct {
	Epoch  uint64 `json:"epoch"`
	Result []int  `json:"result"`
}

// checkRTopK compares an even selection of the kept rtopk responses with
// the naive oracle on the point set of the response's epoch, and returns
// how many it checked.
func checkRTopK(p *plan, samples []opResult) int {
	log := mutationLog(samples)
	var kept []*opResult
	for i := range samples {
		if s := &samples[i]; s.op.Kind == opRTopK && s.body != nil && s.failed == "" {
			kept = append(kept, s)
		}
	}
	if len(kept) > maxNaiveChecks {
		thin := make([]*opResult, maxNaiveChecks)
		for i := range thin {
			thin[i] = kept[i*len(kept)/maxNaiveChecks]
		}
		kept = thin
	}
	parallelFor(len(kept), func(i int) {
		s := kept[i]
		var got rtopkResp
		if err := json.Unmarshal(s.body, &got); err != nil {
			s.failed = "undecodable rtopk response: " + err.Error()
			return
		}
		pts := p.ds.Points
		if len(log) > 0 {
			pts = pointsAt(p.ds.Points, log, len(p.clients), got.Epoch)
		}
		want := rtopk.BichromaticNaive(pts, p.pool[s.op.WSet].W, s.op.Q, queryK)
		if !slices.Equal(got.Result, want) {
			s.failed = fmt.Sprintf("rtopk oracle mismatch at epoch %d: got %d vectors, naive %d", got.Epoch, len(got.Result), len(want))
		}
	})
	return len(kept)
}

// refinement is any of the three refinements of a why-not answer; the
// fields a refinement does not have stay zero.
type refinement struct {
	Q       []float64   `json:"q"`
	Wm      [][]float64 `json:"wm"`
	K       int         `json:"k"`
	Penalty float64     `json:"penalty"`
}

type explained struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

type whyNotResp struct {
	Result       []int         `json:"result"`
	Missing      []int         `json:"missing"`
	Explanations [][]explained `json:"explanations"`
	ModifyQuery  *refinement   `json:"modify_query"`
	ModifyPrefs  *refinement   `json:"modify_preferences"`
	ModifyAll    *refinement   `json:"modify_all"`
}

// ranksWithin reports whether q ranks <= k under every vector, by scan.
func ranksWithin(pts []vec.Point, q []float64, wm [][]float64, k int) bool {
	for _, w := range wm {
		if topk.RankNaive(pts, w, vec.Score(w, q)) > k {
			return false
		}
	}
	return len(wm) > 0
}

// checkWhyNot re-verifies the three refinements of every why-not answer —
// the refined point must rank within the refined k under every refined
// vector — and compares the first maxInprocChecks answers field for field
// with an in-process Index.WhyNotCtx at the same seed. The server renders
// the answer's fields the same way this decodes them, so equality is exact.
func checkWhyNot(p *plan, samples []opResult) error {
	var kept []*opResult
	for i := range samples {
		if s := &samples[i]; s.op.Kind == opWhyNot && s.failed == "" {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	ix, err := wqrtq.NewIndex(rawPoints(p.ds))
	if err != nil {
		return err
	}
	parallelFor(len(kept), func(i int) {
		s := kept[i]
		var got whyNotResp
		if err := json.Unmarshal(s.body, &got); err != nil {
			s.failed = "undecodable whynot response: " + err.Error()
			return
		}
		if got.ModifyQuery == nil || got.ModifyPrefs == nil || got.ModifyAll == nil {
			s.failed = "whynot answer without refinements"
			return
		}
		switch {
		case !ranksWithin(p.ds.Points, got.ModifyQuery.Q, s.op.Wm, queryK):
			s.failed = "modify_query: refined q misses the top-k of a why-not vector"
		case !ranksWithin(p.ds.Points, s.op.Q, got.ModifyPrefs.Wm, got.ModifyPrefs.K):
			s.failed = "modify_preferences: q misses the refined top-k' of a refined vector"
		case !ranksWithin(p.ds.Points, got.ModifyAll.Q, got.ModifyAll.Wm, got.ModifyAll.K):
			s.failed = "modify_all: refined q misses the refined top-k' of a refined vector"
		}
		if s.failed != "" || i >= maxInprocChecks {
			return
		}
		resp, err := ix.WhyNotCtx(context.Background(), wqrtq.WhyNotRequest{
			Q: s.op.Q, K: queryK, W: s.op.Wm,
			Opts: wqrtq.Options{SampleSize: s.op.Samples, Seed: s.op.Seed},
		})
		if err != nil {
			s.failed = "in-process whynot: " + err.Error()
			return
		}
		if diff := diffWhyNot(got, resp.Answer); diff != "" {
			s.failed = "whynot differs from in-process answer: " + diff
		}
	})
	return nil
}

// diffWhyNot names the first field in which the served answer differs from
// the in-process one, or "".
func diffWhyNot(got whyNotResp, ans *wqrtq.WhyNotAnswer) string {
	ex := make([][]explained, len(ans.Explanations))
	for i, l := range ans.Explanations {
		ex[i] = make([]explained, len(l))
		for j, r := range l {
			ex[i][j] = explained{r.ID, r.Score}
		}
	}
	mq, mp, ma := ans.ModifiedQuery, ans.ModifiedPreferences, ans.ModifiedAll
	switch {
	case !slices.Equal(got.Result, ans.Result):
		return "result"
	case !slices.Equal(got.Missing, ans.Missing):
		return "missing"
	case !reflect.DeepEqual(got.Explanations, ex):
		return "explanations"
	case !reflect.DeepEqual(got.ModifyQuery, &refinement{Q: mq.Q, Penalty: mq.Penalty}):
		return "modify_query"
	case !reflect.DeepEqual(got.ModifyPrefs, &refinement{Wm: mp.Wm, K: mp.K, Penalty: mp.Penalty}):
		return "modify_preferences"
	case !reflect.DeepEqual(got.ModifyAll, &refinement{Q: ma.Q, Wm: ma.Wm, K: ma.K, Penalty: ma.Penalty}):
		return "modify_all"
	}
	return ""
}

// sameResults compares the durable workload's verification reads before
// the kill with the same reads after the restart, marking the later ones.
func sameResults(before, after []opResult) {
	for i := range after {
		a, b := &after[i], &before[i]
		if a.failed != "" || b.failed != "" {
			continue
		}
		var ra, rb rtopkResp
		if json.Unmarshal(a.body, &ra) != nil || json.Unmarshal(b.body, &rb) != nil {
			a.failed = "undecodable verification read"
		} else if !slices.Equal(ra.Result, rb.Result) {
			a.failed = fmt.Sprintf("read %d answers differently after recovery", i)
		}
	}
}
