package wqrtq

// Which tier answers a reverse top-k query is decided by properties of the
// input alone — whether a cell grid fits its budget, and k relative to n —
// never by a flag. The differential suites randomize over d <= 4, where the
// cell index serves; this table pins the tier below it too, one capped
// count descent per vector, up to the dimensionalities of the paper's real
// datasets, and checks each row against the linear-scan oracles.

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
		name   string
		ds     *dataset.Dataset
		k      int
		cell   bool // the cell index answers (d <= 4 on a built band)
		banded bool // a k-skyband is built (4k < n)
		prunes bool // ... and it is smaller than the dataset
	}{
		{"d=3 cell index over the band", dataset.Independent(2000, 3, 900), 10, true, true, true},
		{"d=5 count descent over the band tree", dataset.Independent(2000, 5, 901), 10, false, true, true},
		{"d=5 4k>=n count descent over the full tree", dataset.Independent(32, 5, 902), 10, false, false, false},
		// A pass-through band carries no grid, whatever d.
		{"d=3 4k>=n count descent over the full tree", dataset.Independent(32, 3, 903), 10, false, false, false},
		{"NBA-like n=17265 d=13 count descent over the band tree", dataset.NBALike(17265, 904), 10, false, true, true},
		// Household-like data is so anticorrelated at d = 6 that its
		// 10-skyband is the whole dataset: the band tree prunes nothing.
		{"household-like n=20k d=6 count descent over a band of everything", dataset.HouseholdLike(20000, 905), 10, false, true, false},
	}
	t.Run("refinement", refinementTier)
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			n, d := len(ds.Points), ds.Dim
			pts := make([][]float64, n)
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
				ws[j] = sample.RandSimplex(rng, d)
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
			} else {
				if cell.Builds != 0 || cell.Lookups != 0 || kern.Blocks != 0 {
					t.Fatalf("d=%d, 4k<n %t must skip the cell index and sweep nothing: %+v %+v", d, tc.banded, cell, kern)
				}
				// Only the members are counted to completion; every other
				// descent stops at its k-th beater.
				if resp.RTA.Evaluated != len(resp.Result) || resp.RTA.Evaluated+resp.RTA.Pruned != len(W) {
					t.Fatalf("count descent statistics %+v, want %d evaluated of %d", resp.RTA, len(resp.Result), len(W))
				}
			}
			if tc.banded {
				if sky.Builds != 1 || sky.Points != resp.RTA.CandidateSetSize || (sky.Points < n) != tc.prunes {
					t.Fatalf("band (prunes: %t): %+v, candidate set %d of %d", tc.prunes, sky, resp.RTA.CandidateSetSize, n)
				}
			} else if sky.Builds != 0 || resp.RTA.CandidateSetSize != n {
				t.Fatalf("4k >= n must pass the full set through: %+v, candidate set %d of %d", sky, resp.RTA.CandidateSetSize, n)
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

// refinementTier is TestTierCoverage's refinement tier: the MWK/MQWK
// samples are ranked one way — sweeps of the call-fixed universe — whatever
// the dimensionality or the size of the candidate set.
// The differential suites run at n ~ 20k and d <= 4, where a why-not
// question's candidate set stays in the low thousands; these shapes have
// tens of thousands of candidates (a rank-101 point of UN d = 3 is not
// dominated by about a quarter of the dataset) and reach d = 5 and the
// dimensionalities of the paper's real datasets, Household (d = 6) and NBA
// (d = 13). Each dataset.MakeWhyNot instance is answered by the product
// path and compared field for field with the skyOff oracle and the
// cellOff clone; every refinement is re-verified by topk.RankNaive; and
// the route is read off
// the counters: one universe per call, every sample loop a sweep of it
// (band-trimmed when k'max fits a trim band the data keeps small).
func refinementTier(t *testing.T) {
	const samples = 12 // |S| = |Q|: q and 12 box points, 13 MWK searches per call
	cases := []struct {
		name    string
		ds      *dataset.Dataset
		rank    int
		trimmed bool // k'max fits a trim band the data keeps small
	}{
		{"UN n=100k d=3 rank 101", dataset.Independent(100000, 3, 42), 101, true},
		{"UN n=100k d=3 rank 501", nil, 501, false},
		{"UN n=100k d=3 rank 1001", nil, 1001, false},
		{"AC n=20k d=3 rank 101", dataset.Anticorrelated(20000, 3, 43), 101, false},
		{"UN n=100k d=4 rank 101", dataset.Independent(100000, 4, 44), 101, false},
		{"UN n=30k d=5 rank 101", dataset.Independent(30000, 5, 45), 101, false},
		{"household-like n=20k d=6 rank 101", dataset.HouseholdLike(20000, 46), 101, false},
		{"NBA-like n=17k d=13 rank 101", dataset.NBALike(17265, 47), 101, false},
	}
	var ix *Index
	for ci, tc := range cases {
		if tc.ds == nil {
			tc.ds = cases[ci-1].ds // the same UN dataset and index, a harder question
			cases[ci].ds = tc.ds
		} else {
			pts := make([][]float64, len(tc.ds.Points))
			for j, p := range tc.ds.Points {
				pts[j] = p
			}
			var err error
			if ix, err = NewIndex(pts); err != nil {
				t.Fatal(err)
			}
		}
		ds := tc.ds
		skyOff, cellOff := ix.Clone(), ix.Clone()
		skyOff.skyOff = true
		cellOff.cellOff = true
		t.Run(tc.name, func(t *testing.T) {
			for inst := 0; inst < 2; inst++ {
				wl, err := dataset.MakeWhyNot(ds, 10, tc.rank, 1, int64(7000+10*ci+inst))
				if err != nil {
					t.Fatal(err)
				}
				wm := [][]float64{wl.Wm[0]}
				req := WhyNotRequest{Q: wl.Q, K: wl.K, W: wm, Opts: Options{SampleSize: samples, Seed: int64(inst + 1)}}
				before, skyBefore := ix.KernelStats(), ix.SkybandStats()
				resp, err := ix.WhyNotCtx(t.Context(), req)
				if err != nil {
					t.Fatal(err)
				}
				after, skyAfter := ix.KernelStats(), ix.SkybandStats()
				got := resp.Answer
				if len(got.Missing) != 1 {
					t.Fatalf("instance %d: the why-not vector is not missing: %+v", inst, got.Missing)
				}
				for name, ref := range map[string]*Index{"skyband off": skyOff, "cell index off": cellOff} {
					want, err := ref.WhyNotCtx(t.Context(), req)
					if err != nil {
						t.Fatal(err)
					}
					// RTA statistics legitimately differ (they report the
					// candidate set each path pruned against); everything
					// the question's answer consists of must not.
					w := want.Answer
					if !reflect.DeepEqual(got.Result, w.Result) || !reflect.DeepEqual(got.Missing, w.Missing) ||
						!reflect.DeepEqual(got.Explanations, w.Explanations) ||
						!reflect.DeepEqual(got.ModifiedQuery, w.ModifiedQuery) ||
						!reflect.DeepEqual(got.ModifiedPreferences, w.ModifiedPreferences) ||
						!reflect.DeepEqual(got.ModifiedAll, w.ModifiedAll) {
						t.Fatalf("instance %d: product answer differs from %s:\n got %+v %+v %+v\nwant %+v %+v %+v", inst, name,
							got.ModifiedQuery, got.ModifiedPreferences, got.ModifiedAll, w.ModifiedQuery, w.ModifiedPreferences, w.ModifiedAll)
					}
				}

				within := func(q []float64, ws [][]float64, k int) bool {
					for _, w := range ws {
						if topk.RankNaive(ds.Points, w, vec.Score(w, q)) > k {
							return false
						}
					}
					return true
				}
				if !within(got.ModifiedQuery.Q, wm, wl.K) {
					t.Fatalf("instance %d: MQP refinement does not rank within k", inst)
				}
				if mp := got.ModifiedPreferences; !within(wl.Q, mp.Wm, mp.K) {
					t.Fatalf("instance %d: MWK refinement does not rank within k' = %d", inst, mp.K)
				}
				if ma := got.ModifiedAll; !within(ma.Q, ma.Wm, ma.K) {
					t.Fatalf("instance %d: MQWK refinement does not rank within k' = %d", inst, ma.K)
				}

				rt := after.Refine
				rt.Universes -= before.Refine.Universes
				rt.UniversePoints -= before.Refine.UniversePoints
				rt.EvalsTrimmed -= before.Refine.EvalsTrimmed
				rt.EvalsUntrimmed -= before.Refine.EvalsUntrimmed
				rt.SamplesDrawn -= before.Refine.SamplesDrawn
				rt.PointsSkipped -= before.Refine.PointsSkipped
				// q (MWK, and MQWK's point 0) and the |Q| box points,
				// less those the penalty budget skipped; every evaluated
				// point draws exactly |S| samples.
				loops := int64(samples+1) - rt.PointsSkipped
				if rt.SamplesDrawn != loops*samples {
					t.Fatalf("instance %d: %d samples drawn, want %d", inst, rt.SamplesDrawn, loops*samples)
				}
				if rt.Universes != 1 || rt.EvalsTrimmed+rt.EvalsUntrimmed != loops {
					t.Fatalf("instance %d: every sample loop must sweep the one call-fixed universe: %+v", inst, rt)
				}
				if rt.UniversePoints <= 8192 {
					t.Fatalf("instance %d: universe of %d points does not reach past the old linear-scan cutoff", inst, rt.UniversePoints)
				}
				if tc.trimmed && got.ModifiedPreferences.KMax <= maxTrimBand && rt.EvalsTrimmed != loops {
					t.Fatalf("instance %d: k'max %d fits a trim band, yet %d of %d loops swept untrimmed",
						inst, got.ModifiedPreferences.KMax, rt.EvalsUntrimmed, loops)
				}
				// A call that sweeps untrimmed says why: exactly one
				// counted refusal (k'max past the band cap, or a band
				// the data makes too large to be worth building).
				refusedK := skyAfter.TrimRefusedK - skyBefore.TrimRefusedK
				refusedBand := skyAfter.TrimRefusedBand - skyBefore.TrimRefusedBand
				wantK, wantBand := int64(0), int64(0)
				switch {
				case got.ModifiedPreferences.KMax > maxTrimBand:
					wantK = 1
				case !tc.trimmed:
					wantBand = 1
				}
				if refusedK != wantK || refusedBand != wantBand || skyAfter.TrimRefusedDataset != 0 ||
					(rt.EvalsUntrimmed > 0) != (wantK+wantBand > 0) {
					t.Fatalf("instance %d: k'max %d, %d untrimmed loops, refusals k=%d band=%d, want k=%d band=%d",
						inst, got.ModifiedPreferences.KMax, rt.EvalsUntrimmed, refusedK, refusedBand, wantK, wantBand)
				}
				// Every sample and every Wm ranking costs at most one
				// sweep of the universe (capped sweeps and the trim make
				// it far less), plus the k0 ranking of the preparation.
				if swept, bound := after.Points-before.Points, (loops*(samples+1)+1)*rt.UniversePoints; swept > bound {
					t.Fatalf("instance %d: swept %d points, bound %d", inst, swept, bound)
				}
			}
		})
	}
}

// TestRefinementDegenerateUniverses pins the two universes a literal
// dimension test used to keep off the product path: one with candidates but
// nothing incomparable with q (every point on one dominance chain, so the
// sampler has no sample space and the k-only baseline stands), through
// Index.WhyNotCtx at d = 5, 6 and 13; and the zero-point universe of a q
// that dominates the whole dataset, which only the standalone refinements
// reach (WhyNot finds nothing missing). Answers must equal the skyOff
// oracle's, and the counters must show a universe was prepared — not the
// legacy route taken silently.
func TestRefinementDegenerateUniverses(t *testing.T) {
	const n, k = 200, 10
	for _, d := range []int{5, 6, 13} {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = float64(i+1) / float64(n+1)
			}
		}
		ix, err := NewIndex(pts)
		if err != nil {
			t.Fatal(err)
		}
		oracle := ix.Clone()
		oracle.skyOff = true
		w := make([]float64, d)
		for j := range w {
			w[j] = 1 / float64(d)
		}
		opts := Options{SampleSize: 12, Seed: 1}

		// q equal to the 61st chain point: 60 points dominate it, none is
		// incomparable with it.
		req := WhyNotRequest{Q: pts[60], K: k, W: [][]float64{w}, Opts: opts}
		before := ix.KernelStats().Refine
		got, err := ix.WhyNotCtx(t.Context(), req)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		want, err := oracle.WhyNotCtx(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		sameWhyNot(t, "chain", got.Answer, want.Answer)
		if mp := got.Answer.ModifiedPreferences; len(got.Answer.Missing) != 1 || mp.K != 61 || mp.KMax != 61 || !reflect.DeepEqual(mp.Wm, [][]float64{w}) {
			t.Fatalf("d=%d: no sample space at q, so the k-only baseline must stand: %+v", d, mp)
		}
		after := ix.KernelStats().Refine
		if after.Universes-before.Universes != 1 || after.UniversePoints-before.UniversePoints != 60 {
			t.Fatalf("d=%d: chain question did not prepare its 60-point universe: %+v -> %+v", d, before, after)
		}

		// q below every point: the candidate list is empty.
		zero := make([]float64, d)
		before = after
		gotMP, err := ix.ModifyPreferencesCtx(t.Context(), ModifyPreferencesRequest{Q: zero, K: k, Wm: [][]float64{w}, Opts: opts})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		wantMP, err := oracle.ModifyPreferencesCtx(t.Context(), ModifyPreferencesRequest{Q: zero, K: k, Wm: [][]float64{w}, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		gotMA, err := ix.ModifyAllCtx(t.Context(), ModifyAllRequest{Q: zero, K: k, Wm: [][]float64{w}, Opts: opts})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		wantMA, err := oracle.ModifyAllCtx(t.Context(), ModifyAllRequest{Q: zero, K: k, Wm: [][]float64{w}, Opts: opts})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotMP.Refinement, wantMP.Refinement) || !reflect.DeepEqual(gotMA.Refinement, wantMA.Refinement) {
			t.Fatalf("d=%d: empty candidate list: %+v %+v, oracle %+v %+v", d, gotMP.Refinement, gotMA.Refinement, wantMP.Refinement, wantMA.Refinement)
		}
		if gotMP.Refinement.K != k || gotMP.Refinement.KMax != 1 || gotMP.Refinement.Penalty != 0 {
			t.Fatalf("d=%d: q already ranks first: %+v", d, gotMP.Refinement)
		}
		after = ix.KernelStats().Refine
		if after.Universes-before.Universes != 2 || after.UniversePoints != before.UniversePoints {
			t.Fatalf("d=%d: the two calls must each prepare a zero-point universe: %+v -> %+v", d, before, after)
		}
	}
}

// TestMQWKBudgetFires pins that the product's MQWK budget does work at a
// Table-1 shape (UN n = 20k, k = 10, rank 101, |Wm| = 1, |S| = |Q| = 200)
// and changes no answer: some box points are skipped outright, some rank
// their samples under a cap below k'max, and ModifyAll equals the skyOff
// oracle's (the nil-Source path, which runs Algorithm 3 unbudgeted) field
// for field.
func TestMQWKBudgetFires(t *testing.T) {
	const samples = 200
	ds := dataset.Independent(20000, 3, 1)
	pts := make([][]float64, len(ds.Points))
	for i, p := range ds.Points {
		pts[i] = p
	}
	ix, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ix.Clone()
	oracle.skyOff = true
	wl, err := dataset.MakeWhyNot(ds, 10, 101, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := ModifyAllRequest{Q: wl.Q, K: wl.K, Wm: [][]float64{wl.Wm[0]}, Opts: Options{SampleSize: samples, Seed: 1}}
	want, err := oracle.ModifyAllCtx(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := ix.KernelStats().Refine
	got, err := ix.ModifyAllCtx(t.Context(), req)
	if err != nil {
		t.Fatal(err)
	}
	after := ix.KernelStats().Refine
	if !reflect.DeepEqual(got.Refinement, want.Refinement) {
		t.Fatalf("budgeted ModifyAll differs from the oracle:\n got %+v\nwant %+v", got.Refinement, want.Refinement)
	}
	skipped := after.PointsSkipped - before.PointsSkipped
	capped := after.PointsCapped - before.PointsCapped
	evals := after.EvalsTrimmed + after.EvalsUntrimmed - before.EvalsTrimmed - before.EvalsUntrimmed
	if skipped == 0 || capped == 0 {
		t.Fatalf("the budget skipped %d and capped %d of %d box points; want both to fire", skipped, capped, samples)
	}
	// q (point 0) and every box point the budget did not skip.
	if evals != samples+1-skipped || after.SamplesDrawn-before.SamplesDrawn != evals*samples {
		t.Fatalf("%d evaluations and %d draws for %d skipped points", evals, after.SamplesDrawn-before.SamplesDrawn, skipped)
	}
}
