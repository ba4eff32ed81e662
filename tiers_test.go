package wqrtq

// Which tier answers a reverse top-k query is decided by properties of the
// input alone — dimensionality and k relative to n — never by a flag. The
// differential suites randomize over d <= 4, where the cell index serves;
// this table pins the other tiers too, and checks each one against the
// linear-scan oracles.

import (
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/rtopk"
	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

func TestTierCoverage(t *testing.T) {
	cases := []struct {
		name    string
		n, d, k int
		cell    bool // the cell index answers (d <= 4)
		banded  bool // the k-skyband prunes (4k < n)
	}{
		{"d=3 cell index over the band", 2000, 3, 10, true, true},
		{"d=5 RTA over the band tree", 2000, 5, 10, false, true},
		{"d=5 4k>=n RTA over the full tree", 32, 5, 10, false, false},
		{"d=3 4k>=n cell index over the full set", 32, 3, 10, true, false},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := dataset.Independent(tc.n, tc.d, int64(900+ci))
			pts := make([][]float64, len(ds.Points))
			for j, p := range ds.Points {
				pts[j] = p
			}
			ix, err := NewIndex(pts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(950 + ci)))
			W := make([][]float64, 40)
			ws := make([]vec.Weight, len(W))
			for j := range W {
				ws[j] = sample.RandSimplex(rng, tc.d)
				W[j] = ws[j]
			}
			// A competitive query point — the k-th best under the first
			// vector — so the result is neither empty nor everything.
			top, err := ix.TopK(W[0], tc.k)
			if err != nil {
				t.Fatal(err)
			}
			q := top[tc.k-1].Point

			resp, err := ix.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: tc.k, W: W})
			if err != nil {
				t.Fatal(err)
			}
			want := rtopk.BichromaticNaive(ds.Points, ws, q, tc.k)
			if !reflect.DeepEqual(resp.Result, want) {
				t.Fatalf("ReverseTopK %v, naive %v", resp.Result, want)
			}
			if len(want) == 0 || len(want) == len(W) {
				t.Fatalf("degenerate case: %d of %d vectors in the result", len(want), len(W))
			}

			cell, kern, sky := ix.CellIndexStats(), ix.KernelStats(), ix.SkybandStats()
			if tc.cell {
				if cell.Builds != 1 || cell.Lookups != int64(len(W)) || cell.Fallbacks != 0 {
					t.Fatalf("cell index did not answer: %+v", cell)
				}
			} else if cell.Builds != 0 || cell.Lookups != 0 || kern.Blocks != 0 {
				t.Fatalf("d=%d must skip the cell index and the kernel gate: %+v %+v", tc.d, cell, kern)
			}
			if !tc.cell && resp.RTA.Evaluated+resp.RTA.Pruned != len(W) {
				t.Fatalf("RTA did not account for every vector: %+v", resp.RTA)
			}
			if tc.banded {
				if sky.Builds != 1 || sky.Points != resp.RTA.CandidateSetSize || sky.Points >= tc.n {
					t.Fatalf("band did not prune: %+v, candidate set %d of %d", sky, resp.RTA.CandidateSetSize, tc.n)
				}
			} else if sky.Builds != 0 || resp.RTA.CandidateSetSize != tc.n {
				t.Fatalf("4k >= n must pass the full set through: %+v, candidate set %d of %d", sky, resp.RTA.CandidateSetSize, tc.n)
			}

			for _, w := range W[:8] {
				got, err := ix.Rank(w, q)
				if err != nil {
					t.Fatal(err)
				}
				if want := topk.RankNaive(ds.Points, w, vec.Score(w, q)); got != want {
					t.Fatalf("Rank %d, naive %d", got, want)
				}
			}
		})
	}
}
