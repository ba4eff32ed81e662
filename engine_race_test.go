package wqrtq

// The snapshot-isolation hammer: one engine takes concurrent Insert/Delete
// traffic and query traffic at the same time, and every query is
// differentially checked against a brute-force oracle over the very
// snapshot it ran on. Any torn read — a query observing a half-applied
// mutation — shows up as an oracle mismatch, a structural-invariant
// violation, or a race-detector report under `go test -race`.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/sample"
	"wqrtq/internal/vec"
)

// bruteTopK computes the top-k over a snapshot's live points by linear scan.
func bruteTopK(snap *Index, w []float64, k int) []Ranked {
	var out []Ranked
	for id := 0; id < snap.NumIDs(); id++ {
		p := snap.Point(id)
		if p == nil {
			continue
		}
		s := vec.Score(vec.Weight(w), vec.Point(p))
		pos := len(out)
		for pos > 0 && out[pos-1].Score > s {
			pos--
		}
		if len(out) < k {
			out = append(out, Ranked{})
		} else if pos == len(out) {
			continue
		}
		copy(out[pos+1:], out[pos:len(out)-1])
		out[pos] = Ranked{ID: id, Point: p, Score: s}
	}
	return out
}

func TestEngineConcurrentSnapshotIsolation(t *testing.T) {
	engineHammer(t, EngineConfig{CacheSize: 256})
}

func engineHammer(t *testing.T, cfg EngineConfig) {
	const (
		seedN    = 600
		dim      = 3
		inserts  = 900
		queryGo  = 4
		queriesN = 250
	)
	ds := dataset.Independent(seedN, dim, 21)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Universe of every point that can ever be live, keyed by id: seeds plus
	// the pre-generated insert pool (ids are allocated sequentially).
	pool := dataset.Independent(inserts, dim, 22)
	universe := make([]vec.Point, 0, seedN+inserts)
	universe = append(universe, ds.Points...)
	universe = append(universe, pool.Points...)

	e, err := NewEngine(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var wg sync.WaitGroup

	// Mutator: interleave inserts from the pool with deletes of random ids.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < inserts; i++ {
			id, _, err := e.Insert(pool.Points[i])
			if err != nil {
				t.Errorf("insert %d: %v", i, err)
				return
			}
			if id != seedN+i {
				t.Errorf("insert %d allocated id %d, want %d", i, id, seedN+i)
				return
			}
			if i%2 == 0 {
				if _, _, err := e.Delete(rng.Intn(id + 1)); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}
	}()

	// Query goroutines: every iteration pins a snapshot, cross-checks the
	// indexed query against a brute-force scan of that same snapshot, and
	// also exercises the engine-level (batched, cached) path.
	for g := 0; g < queryGo; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(g)))
			for i := 0; i < queriesN; i++ {
				snap := e.Snapshot()
				w := []float64(sample.RandSimplex(rng, dim))
				k := 1 + rng.Intn(12)

				got, err := snap.TopK(w, k)
				if err != nil {
					t.Errorf("snapshot TopK: %v", err)
					return
				}
				want := bruteTopK(snap, w, k)
				if len(got) != len(want) {
					t.Errorf("snapshot %d: TopK returned %d points, oracle %d",
						snap.Epoch(), len(got), len(want))
					return
				}
				for j := range got {
					if got[j].Score != want[j].Score {
						t.Errorf("snapshot %d: rank %d score %v, oracle %v",
							snap.Epoch(), j+1, got[j].Score, want[j].Score)
						return
					}
				}

				// Engine-level query: the result must be internally
				// consistent with *some* snapshot — every returned point is
				// from the known universe, the reported scores are exact,
				// and ranks ascend.
				resResp, err := e.TopKCtx(context.Background(), TopKRequest{W: w, K: k})
				res := resResp.Result
				if err != nil {
					t.Errorf("engine TopK: %v", err)
					return
				}
				prev := 0.0
				for j, r := range res {
					if r.ID < 0 || r.ID >= len(universe) {
						t.Errorf("engine TopK returned unknown id %d", r.ID)
						return
					}
					if !vec.Equal(vec.Point(r.Point), universe[r.ID]) {
						t.Errorf("engine TopK id %d has torn point %v, want %v",
							r.ID, r.Point, universe[r.ID])
						return
					}
					if s := vec.Score(vec.Weight(w), vec.Point(r.Point)); s != r.Score {
						t.Errorf("engine TopK id %d score %v, recomputed %v", r.ID, r.Score, s)
						return
					}
					if r.Score < prev {
						t.Errorf("engine TopK scores not ascending at rank %d", j+1)
						return
					}
					prev = r.Score
				}

				if i%10 == 0 {
					// Reverse top-k through the batched path against the
					// pinned snapshot's oracle is checked in engine_test.go;
					// here just assert it stays well-formed under churn.
					W := [][]float64{w, sample.RandSimplex(rng, dim)}
					q := []float64{rng.Float64() * 0.05, rng.Float64() * 0.05, rng.Float64() * 0.05}
					idxsResp, err := e.ReverseTopKCtx(context.Background(), ReverseTopKRequest{W: W, Q: q, K: k})
					idxs := idxsResp.Result
					if err != nil {
						t.Errorf("engine ReverseTopK: %v", err)
						return
					}
					for _, ix := range idxs {
						if ix < 0 || ix >= len(W) {
							t.Errorf("ReverseTopK index %d out of range", ix)
							return
						}
					}
				}
			}
		}(g)
	}

	wg.Wait()
	if t.Failed() {
		return
	}
	final := e.Snapshot()
	if err := final.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if final.NumIDs() != seedN+inserts {
		t.Fatalf("final NumIDs = %d, want %d", final.NumIDs(), seedN+inserts)
	}
}
