package core

// Differential oracle suite: the R-tree-backed implementations of TopK,
// Rank, bichromatic ReverseTopK and Explain are cross-checked against
// brute-force O(n·|W|) oracles on randomized UN (uniform/independent),
// CO (correlated) and AC (anti-correlated) datasets — the dataset shapes of
// the paper's §5 evaluation (Table 1). Cases are seeded and table-driven,
// so every failure reproduces from its case index alone.
//
// Comparisons are tie-robust: where the paper's definitions determine only
// a score multiset (a tie at the k-th rank boundary can be broken either
// way), the oracle checks the determined properties — exact score sequence,
// per-point score recomputation, and the boundary condition that nothing
// outside the answer scores strictly better than the last point inside —
// rather than a particular tie order.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

const oracleCasesPerShape = 200

var oracleShapes = []struct {
	name string
	gen  func(n, d int, seed int64) *dataset.Dataset
}{
	{"UN", dataset.Independent},
	{"CO", dataset.Correlated},
	{"AC", dataset.Anticorrelated},
}

// oracleCase derives one deterministic randomized case.
type oracleCase struct {
	rng *rand.Rand
	ds  *dataset.Dataset
	n   int
	d   int
	k   int
}

func makeCase(shape int, i int) oracleCase {
	seed := int64(1000*shape + i)
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(300)
	d := 2 + rng.Intn(3)
	k := 1 + rng.Intn(15)
	return oracleCase{
		rng: rng,
		ds:  oracleShapes[shape].gen(n, d, seed+1),
		n:   n,
		d:   d,
		k:   k,
	}
}

// queryPoint draws a competitive query point: componentwise products of
// uniforms concentrate near the origin, so the point often lands near the
// skyline where all four queries have non-trivial answers.
func (c oracleCase) queryPoint() vec.Point {
	q := make(vec.Point, c.d)
	for j := range q {
		q[j] = c.rng.Float64() * c.rng.Float64()
	}
	return q
}

// checkTopKShape verifies the tie-robust top-k predicate: got is sorted,
// scores are exact, |got| = min(k, n), and no point outside got scores
// strictly better than the boundary.
func checkTopKShape(t *testing.T, pts []vec.Point, w vec.Weight, k int, got []topk.Result) {
	t.Helper()
	wantLen := k
	if len(pts) < k {
		wantLen = len(pts)
	}
	if len(got) != wantLen {
		t.Fatalf("top-%d over %d points returned %d results", k, len(pts), len(got))
	}
	seen := make(map[int32]bool, len(got))
	prev := 0.0
	for i, r := range got {
		if seen[r.ID] {
			t.Fatalf("duplicate id %d in top-k", r.ID)
		}
		seen[r.ID] = true
		if r.ID < 0 || int(r.ID) >= len(pts) {
			t.Fatalf("id %d out of range", r.ID)
		}
		if s := vec.Score(w, pts[r.ID]); s != r.Score {
			t.Fatalf("id %d reported score %v, recomputed %v", r.ID, r.Score, s)
		}
		if i > 0 && r.Score < prev {
			t.Fatalf("scores not ascending at rank %d", i+1)
		}
		prev = r.Score
	}
	if len(got) == 0 {
		return
	}
	boundary := got[len(got)-1].Score
	for id, p := range pts {
		if !seen[int32(id)] && vec.Score(w, p) < boundary {
			t.Fatalf("point %d scores %v, strictly better than boundary %v but excluded",
				id, vec.Score(w, p), boundary)
		}
	}
	// The score sequence itself must equal the oracle's sorted prefix.
	all := make([]float64, len(pts))
	for id, p := range pts {
		all[id] = vec.Score(w, p)
	}
	sort.Float64s(all)
	for i, r := range got {
		if r.Score != all[i] {
			t.Fatalf("rank %d score %v, oracle %v", i+1, r.Score, all[i])
		}
	}
}

func TestOracleTopK(t *testing.T) {
	for si, shape := range oracleShapes {
		t.Run(shape.name, func(t *testing.T) {
			for i := 0; i < oracleCasesPerShape; i++ {
				c := makeCase(si, i)
				tr := c.ds.Tree()
				w := sample.RandSimplex(c.rng, c.d)
				got := topk.TopK(tr, w, c.k)
				checkTopKShape(t, c.ds.Points, w, c.k, got)
			}
		})
	}
}

func TestOracleRank(t *testing.T) {
	for si, shape := range oracleShapes {
		t.Run(shape.name, func(t *testing.T) {
			for i := 0; i < oracleCasesPerShape; i++ {
				c := makeCase(si, i)
				tr := c.ds.Tree()
				w := sample.RandSimplex(c.rng, c.d)
				q := c.queryPoint()
				fq := vec.Score(w, q)
				got := topk.Rank(tr, w, fq)
				want := topk.RankNaive(c.ds.Points, w, fq)
				if got != want {
					t.Fatalf("case %d: Rank = %d, oracle %d (n=%d d=%d fq=%v)",
						i, got, want, c.n, c.d, fq)
				}
			}
		})
	}
}

// bruteReverseTopK is the O(n·|W|) oracle straight from Definition 3: w is
// in the result iff fewer than k points score strictly better than q.
func bruteReverseTopK(pts []vec.Point, W []vec.Weight, q vec.Point, k int) []int {
	var out []int
	for wi, w := range W {
		fq := vec.Score(w, q)
		better := 0
		for _, p := range pts {
			if vec.Score(w, p) < fq {
				better++
			}
		}
		if better < k {
			out = append(out, wi)
		}
	}
	return out
}

func TestOracleReverseTopK(t *testing.T) {
	for si, shape := range oracleShapes {
		t.Run(shape.name, func(t *testing.T) {
			for i := 0; i < oracleCasesPerShape; i++ {
				c := makeCase(si, i)
				tr := c.ds.Tree()
				q := c.queryPoint()
				W := make([]vec.Weight, 1+c.rng.Intn(25))
				for j := range W {
					W[j] = sample.RandSimplex(c.rng, c.d)
				}
				got, _, _ := rtopk.BichromaticCtx(context.Background(), tr, W, q, c.k)
				want := bruteReverseTopK(c.ds.Points, W, q, c.k)
				if len(got) != len(want) {
					t.Fatalf("case %d: result %v, oracle %v (n=%d d=%d k=%d)",
						i, got, want, c.n, c.d, c.k)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("case %d: result %v, oracle %v", i, got, want)
					}
				}
			}
		})
	}
}

func TestOracleExplain(t *testing.T) {
	for si, shape := range oracleShapes {
		t.Run(shape.name, func(t *testing.T) {
			for i := 0; i < oracleCasesPerShape; i++ {
				c := makeCase(si, i)
				tr := c.ds.Tree()
				q := c.queryPoint()
				Wm := make([]vec.Weight, 1+c.rng.Intn(4))
				for j := range Wm {
					Wm[j] = sample.RandSimplex(c.rng, c.d)
				}
				exps := explain(t, tr, q, Wm)
				if len(exps) != len(Wm) {
					t.Fatalf("case %d: %d explanations for %d vectors", i, len(exps), len(Wm))
				}
				for wi, exp := range exps {
					w := Wm[wi]
					fq := vec.Score(w, q)
					// Oracle: exactly the ids scoring strictly better than q.
					want := make(map[int32]bool)
					for id, p := range c.ds.Points {
						if vec.Score(w, p) < fq {
							want[int32(id)] = true
						}
					}
					if len(exp) != len(want) {
						t.Fatalf("case %d vector %d: %d explaining points, oracle %d",
							i, wi, len(exp), len(want))
					}
					prev := 0.0
					for j, r := range exp {
						if !want[r.ID] {
							t.Fatalf("case %d vector %d: id %d does not outscore q", i, wi, r.ID)
						}
						if s := vec.Score(w, c.ds.Points[r.ID]); s != r.Score {
							t.Fatalf("case %d vector %d: id %d score %v, recomputed %v",
								i, wi, r.ID, r.Score, s)
						}
						if j > 0 && r.Score < prev {
							t.Fatalf("case %d vector %d: not in rank order", i, wi)
						}
						prev = r.Score
					}
				}
			}
		})
	}
}
