package wqrtq

// Differential property suite for the k-skyband sub-index: with the
// sub-index enabled (the default), every endpoint must answer bit-
// identically to the skyOff oracle (the full tree, and core's nil-Source
// legacy path for the refinements) — same top-k score sequences
// via RTA, same ranks, same reverse top-k index sets, same explanations,
// and the same why-not penalties down to the last bit (which exercises the
// lazy sampler's stream identity and the hybrid rank counting) — across
// UN/CO/AC workloads and mutation streams that invalidate cached bands.

import (
	"math/rand"
	"reflect"
	"testing"

	"wqrtq/internal/dataset"
	"wqrtq/internal/dominance"
	"wqrtq/internal/sample"
	"wqrtq/internal/skyband"
)

// diffShapes are the paper's dataset distributions the differential suites
// randomize over.
var diffShapes = []struct {
	name string
	gen  func(n, d int, seed int64) *dataset.Dataset
}{
	{"UN", dataset.Independent},
	{"CO", dataset.Correlated},
	{"AC", dataset.Anticorrelated},
}

// sameRankedModuloTies compares two ranked lists for bit-identical scores
// and, within each run of equal scores, identical ID sets. Duplicate points
// (the clamped CO/AC generators produce them) tie on every score, and the
// paper's definitions determine only the score sequence at a tie — the
// heap's pop order among equal scores is unspecified, so ID order inside a
// tie run is not comparable.
func sameRankedModuloTies(t *testing.T, label string, got, want []Ranked) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			t.Fatalf("%s: rank %d score %v, want %v", label, i+1, got[i].Score, want[i].Score)
		}
	}
	for lo := 0; lo < len(got); {
		hi := lo + 1
		for hi < len(got) && got[hi].Score == got[lo].Score {
			hi++
		}
		g := make(map[int]bool, hi-lo)
		for _, r := range got[lo:hi] {
			g[r.ID] = true
		}
		for _, r := range want[lo:hi] {
			if !g[r.ID] {
				t.Fatalf("%s: tie run at rank %d-%d has id %d in the reference but not the result",
					label, lo+1, hi, r.ID)
			}
		}
		lo = hi
	}
}

// skybandPair builds two identical indexes over pts, one with the
// sub-index on (default) and one ablated off.
func skybandPair(t *testing.T, pts [][]float64) (on, off *Index) {
	t.Helper()
	on, err := NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	if on.skyOff {
		t.Fatal("skyband must be enabled by default")
	}
	off, err = NewIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	off.skyOff = true
	return on, off
}

func TestSkybandDifferential(t *testing.T) {
	const casesPerShape = 18
	for si, shape := range diffShapes {
		t.Run(shape.name, func(t *testing.T) {
			for i := 0; i < casesPerShape; i++ {
				seed := int64(70000*si + i)
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(300)
				d := 2 + rng.Intn(3)
				k := 1 + rng.Intn(15)
				ds := shape.gen(n, d, seed+300000)
				pts := make([][]float64, len(ds.Points))
				for j, p := range ds.Points {
					pts[j] = p
				}
				w := []float64(sample.RandSimplex(rng, d))
				q := make([]float64, d)
				for j := range q {
					q[j] = rng.Float64() * rng.Float64()
				}
				W := make([][]float64, 1+rng.Intn(20))
				for j := range W {
					W[j] = sample.RandSimplex(rng, d)
				}
				on, off := skybandPair(t, pts)
				gotRank, err := on.Rank(w, q)
				if err != nil {
					t.Fatal(err)
				}
				wantRank, _ := off.Rank(w, q)
				if gotRank != wantRank {
					t.Fatalf("case %d: Rank %d, ablation %d", i, gotRank, wantRank)
				}
				gotRTK, err := on.ReverseTopK(W, q, k)
				if err != nil {
					t.Fatal(err)
				}
				wantRTK, _ := off.ReverseTopK(W, q, k)
				if !reflect.DeepEqual(gotRTK, wantRTK) {
					t.Fatalf("case %d: ReverseTopK %v, ablation %v", i, gotRTK, wantRTK)
				}
				// TopK-via-RTA: the score sequence each RTA evaluation
				// buffers is the global top-k; spot-check it directly
				// through the banded evaluation path.
				onResp, err := on.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: k, W: W})
				if err != nil {
					t.Fatal(err)
				}
				offResp, _ := off.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: k, W: W})
				if !reflect.DeepEqual(onResp.Result, offResp.Result) {
					t.Fatalf("case %d: Ctx results diverge", i)
				}
				if onResp.RTA.CandidateSetSize <= 0 || onResp.RTA.CandidateSetSize > offResp.RTA.CandidateSetSize {
					t.Fatalf("case %d: candidate set %d vs full %d",
						i, onResp.RTA.CandidateSetSize, offResp.RTA.CandidateSetSize)
				}
				gotExp, err := on.Explain(q, W[:1])
				if err != nil {
					t.Fatal(err)
				}
				wantExp, _ := off.Explain(q, W[:1])
				sameRankedModuloTies(t, "skyband Explain", gotExp[0], wantExp[0])
			}
		})
	}
}

// TestSkybandWhyNotPenalties runs the full pipeline with identical seeds on
// skyband-on and skyband-off indexes and requires bit-identical answers,
// penalties included — the sub-index reroutes the MQP k-th searches, the
// sampler construction and every rank evaluation, so this pins the whole
// bit-compatibility argument, across the sequential and parallel MQWK
// paths.
func TestSkybandWhyNotPenalties(t *testing.T) {
	const cases = 8
	for i := 0; i < cases; i++ {
		seed := int64(90 + i)
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(200)
		d := 2 + rng.Intn(2)
		k := 1 + rng.Intn(6)
		opts := Options{SampleSize: 16, Seed: seed}
		ds := dataset.Independent(n, d, seed+400000)
		pts := make([][]float64, len(ds.Points))
		for j, p := range ds.Points {
			pts[j] = p
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = pts[rng.Intn(n)][j]*0.5 + 0.3
		}
		W := make([][]float64, 4+rng.Intn(8))
		for j := range W {
			W[j] = sample.RandSimplex(rng, d)
		}
		on, off := skybandPair(t, pts)
		got, err := on.WhyNot(q, k, W, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := off.WhyNot(q, k, W, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Missing, want.Missing) {
			t.Fatalf("case %d: result/missing diverge", i)
		}
		for ei := range want.Explanations {
			sameRankedModuloTies(t, "skyband WhyNot explanation", got.Explanations[ei], want.Explanations[ei])
		}
		if !reflect.DeepEqual(got.ModifiedQuery.Q, want.ModifiedQuery.Q) ||
			got.ModifiedQuery.Penalty != want.ModifiedQuery.Penalty {
			t.Fatalf("case %d: MQP diverged: %+v vs %+v", i, got.ModifiedQuery, want.ModifiedQuery)
		}
		if got.ModifiedPreferences.Penalty != want.ModifiedPreferences.Penalty ||
			got.ModifiedPreferences.K != want.ModifiedPreferences.K ||
			got.ModifiedPreferences.KMax != want.ModifiedPreferences.KMax ||
			!reflect.DeepEqual(got.ModifiedPreferences.Wm, want.ModifiedPreferences.Wm) {
			t.Fatalf("case %d: MWK diverged: %+v vs %+v", i, got.ModifiedPreferences, want.ModifiedPreferences)
		}
		if got.ModifiedAll.Penalty != want.ModifiedAll.Penalty ||
			got.ModifiedAll.K != want.ModifiedAll.K ||
			!reflect.DeepEqual(got.ModifiedAll.Q, want.ModifiedAll.Q) ||
			!reflect.DeepEqual(got.ModifiedAll.Wm, want.ModifiedAll.Wm) {
			t.Fatalf("case %d: MQWK diverged: %+v vs %+v", i, got.ModifiedAll, want.ModifiedAll)
		}
	}
}

// TestSkybandMutationInvalidation drives the same mutation stream into a
// skyband-on and a skyband-off index, querying between mutations: every
// answer must stay identical, which fails if a stale band survives an
// insert or delete.
func TestSkybandMutationInvalidation(t *testing.T) {
	const d = 3
	ds := dataset.Independent(150, d, 41)
	pts := make([][]float64, len(ds.Points))
	for j, p := range ds.Points {
		pts[j] = p
	}
	on, off := skybandPair(t, pts)
	rng := rand.New(rand.NewSource(90017))
	W := make([][]float64, 8)
	for j := range W {
		W[j] = sample.RandSimplex(rng, d)
	}
	for i := 0; i < 120; i++ {
		q := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		// Warm the caches so the mutation has something to invalidate.
		if _, err := on.ReverseTopK(W, q, 5); err != nil {
			t.Fatal(err)
		}
		p := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		idA, errA := on.Insert(p)
		idB, errB := off.Insert(p)
		if errA != nil || errB != nil || idA != idB {
			t.Fatalf("insert diverged: (%d, %v) vs (%d, %v)", idA, errA, idB, errB)
		}
		if i%3 == 0 {
			victim := rng.Intn(idA + 1)
			okA, _ := on.Delete(victim)
			okB, _ := off.Delete(victim)
			if okA != okB {
				t.Fatalf("delete %d diverged", victim)
			}
		}
		gotRTK, err := on.ReverseTopK(W, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		wantRTK, _ := off.ReverseTopK(W, q, 5)
		if !reflect.DeepEqual(gotRTK, wantRTK) {
			t.Fatalf("step %d: post-mutation ReverseTopK diverged", i)
		}
		gotRank, _ := on.Rank(W[0], q)
		wantRank, _ := off.Rank(W[0], q)
		if gotRank != wantRank {
			t.Fatalf("step %d: post-mutation Rank %d vs %d", i, gotRank, wantRank)
		}
	}
	if err := on.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSkybandEngineStats exercises the engine integration: the sub-index
// state and the per-endpoint RTA totals must surface in EngineStats, the
// response stats must carry the candidate-set size, mutations must carry
// the bands they leave unchanged (and drop exactly the ones they do not)
// with the cumulative counters telling which, and the skyOff
// ablation must answer identically.
func TestSkybandEngineStats(t *testing.T) {
	eOn, _ := testEngine(t, 500, 3, EngineConfig{CacheSize: -1})
	eOff, _ := testEngineOver(t, 500, 3, EngineConfig{CacheSize: -1}, func(ix *Index) { ix.skyOff = true })
	if eOn.Snapshot().skyOff || !eOff.Snapshot().skyOff {
		t.Fatal("engine skyband configuration not applied")
	}
	rng := rand.New(rand.NewSource(123))
	q := []float64{rng.Float64() * 0.3, rng.Float64() * 0.3, rng.Float64() * 0.3}
	W := make([][]float64, 12)
	for j := range W {
		W[j] = sample.RandSimplex(rng, 3)
	}
	warm(eOn.Snapshot(), 4)
	respOn, err := eOn.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W})
	if err != nil {
		t.Fatal(err)
	}
	respOff, err := eOff.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(respOn.Result, respOff.Result) {
		t.Fatalf("engine results diverge: %v vs %v", respOn.Result, respOff.Result)
	}
	if respOn.RTA.CandidateSetSize <= 0 || respOn.RTA.CandidateSetSize >= 500 {
		t.Fatalf("banded candidate set size = %d, want within (0, 500)", respOn.RTA.CandidateSetSize)
	}
	if respOff.RTA.CandidateSetSize != 500 {
		t.Fatalf("ablation candidate set size = %d, want 500", respOff.RTA.CandidateSetSize)
	}
	wnOn, err := eOn.WhyNotCtx(t.Context(), WhyNotRequest{Q: q, K: 4, W: W, Opts: Options{SampleSize: 8, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if wnOn.Answer.RTA.Evaluated+wnOn.Answer.RTA.Pruned != len(W) {
		t.Fatalf("WhyNot RTA stats inconsistent: %+v over %d vectors", wnOn.Answer.RTA, len(W))
	}

	st := eOn.Stats()
	if st.Skyband.Builds < 1 || st.Skyband.Bands < 1 || st.Skyband.Points < 1 {
		t.Fatalf("skyband stats not populated: %+v", st.Skyband)
	}
	if st.RTA["rtopk"].Runs != 1 || st.RTA["whynot"].Runs != 1 {
		t.Fatalf("RTA runs = %+v, want one run each", st.RTA)
	}
	if st.RTA["rtopk"].Evaluated+st.RTA["rtopk"].Pruned != int64(len(W)) {
		t.Fatalf("rtopk RTA totals inconsistent: %+v", st.RTA["rtopk"])
	}
	if st.RTA["rtopk"].CandidatePoints != int64(respOn.RTA.CandidateSetSize) {
		t.Fatalf("candidate points %d, want %d", st.RTA["rtopk"].CandidatePoints, respOn.RTA.CandidateSetSize)
	}

	// A mutation publishes a fresh snapshot that keeps every band the
	// mutation leaves unchanged: inserting and then deleting a point nearly
	// everything dominates costs no build at all.
	builds, bands := st.Skyband.Builds, st.Skyband.Bands
	id, _, err := eOn.Insert([]float64{0.99, 0.99, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _, err := eOn.Delete(id); !ok || err != nil {
		t.Fatalf("delete: %t, %v", ok, err)
	}
	st2 := eOn.Stats().Skyband
	if st2.Bands != bands || st2.Builds != builds {
		t.Fatalf("non-member insert+delete: bands %d → %d, builds %d → %d", bands, st2.Bands, builds, st2.Builds)
	}
	if st2.Carried != int64(2*bands) || st2.Dropped != 0 {
		t.Fatalf("two mutations over %d bands: carried=%d dropped=%d", bands, st2.Carried, st2.Dropped)
	}
	if _, err := eOn.ReverseTopKCtx(t.Context(), ReverseTopKRequest{Q: q, K: 4, W: W}); err != nil {
		t.Fatal(err)
	}
	if got := eOn.Stats().Skyband; got.Builds != builds || got.Bands != bands {
		t.Fatalf("query after carried mutations rebuilt its band: %+v", got)
	}

	// Deleting a member of exactly one band drops exactly that band: take
	// a point the rank band (k=32) holds with more than 16 dominators, out
	// of reach of the query's 4-band.
	snap := eOn.Snapshot()
	snap.band(skyband.DefaultRankBand) // materialize the rank band
	rank, _ := dominance.KSkyband(snap.tree, skyband.DefaultRankBand, snap.tree.Len())
	victim := -1
	for _, m := range rank {
		if m.Count >= 17 {
			victim = int(m.ID)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no point with 17..31 dominators")
	}
	st3 := eOn.Stats().Skyband
	if ok, _, err := eOn.Delete(victim); !ok || err != nil {
		t.Fatalf("delete: %t, %v", ok, err)
	}
	st4 := eOn.Stats().Skyband
	if st4.Bands != st3.Bands-1 || st4.Dropped != st3.Dropped+1 || st4.Carried != st3.Carried+int64(st3.Bands-1) {
		t.Fatalf("member delete: before %+v after %+v", st3, st4)
	}
	if _, held := heldBand(t, eOn.Snapshot(), 4); !held {
		t.Fatal("member delete dropped the wrong band")
	}
	// The rank band is the one dropped: the next rank request starts its
	// build.
	if _, err := eOn.RankCtx(t.Context(), RankRequest{W: W[0], Q: q}); err != nil {
		t.Fatal(err)
	}
	settle(eOn.Snapshot())
	if got := eOn.Stats().Skyband; got.Builds != st4.Builds+1 || got.Bands != st3.Bands {
		t.Fatalf("dropped band was not rebuilt in the background: %+v", got)
	}
}
