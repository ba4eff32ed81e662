package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

// Workload is one why-not question instance: a query point whose actual
// ranking under a base preference is controlled (the paper's "actual
// ranking of q under Wm" parameter, Table 1), and a set of why-not
// weighting vectors under which q misses the reverse top-k result.
type Workload struct {
	Q           vec.Point
	Wm          []vec.Weight
	K           int
	BaseWeight  vec.Weight
	ActualRanks []int // rank of Q under each Wm[i]
}

// ErrOriginAnchor reports that at least targetRank points of the dataset
// lie at the origin: the targetRank-th point under every base preference
// is then the origin, which cannot be shrunk into a query point.
var ErrOriginAnchor = errors.New("dataset: at least target-rank points lie at the origin, so no query point can be synthesized at that rank")

// MakeWhyNot builds a workload over ds with the given k, target ranking and
// why-not set size. The query point is synthesized next to the point ranked
// targetRank-th under a random base preference, then the why-not vectors
// are small perturbations of that preference, accepted only when q is
// genuinely missing from their top-k (rank > k). It returns ErrOriginAnchor,
// whatever the seed, when targetRank or more points are all zero.
func MakeWhyNot(ds *Dataset, k, targetRank, nWm int, seed int64) (Workload, error) {
	if targetRank <= k {
		return Workload{}, fmt.Errorf("dataset: target rank %d must exceed k %d", targetRank, k)
	}
	if targetRank > len(ds.Points) {
		return Workload{}, fmt.Errorf("dataset: target rank %d exceeds |P| = %d", targetRank, len(ds.Points))
	}
	if nWm <= 0 {
		return Workload{}, errors.New("dataset: need at least one why-not vector")
	}
	if atOrigin(ds.Points) >= targetRank {
		return Workload{}, ErrOriginAnchor
	}
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 32; attempt++ {
		base := sample.RandSimplex(rng, ds.Dim)
		q := synthesizeAtRank(ds, base, targetRank)
		if q == nil {
			continue
		}
		actual := topk.RankNaive(ds.Points, base, vec.Score(base, q))
		if actual <= k {
			continue
		}
		wm := make([]vec.Weight, 0, nWm)
		ranks := make([]int, 0, nWm)
		for tries := 0; len(wm) < nWm && tries < 64*nWm; tries++ {
			w := perturbWeight(rng, base, 0.05)
			r := topk.RankNaive(ds.Points, w, vec.Score(w, q))
			if r > k {
				wm = append(wm, w)
				ranks = append(ranks, r)
			}
		}
		if len(wm) < nWm {
			continue
		}
		return Workload{Q: q, Wm: wm, K: k, BaseWeight: base, ActualRanks: ranks}, nil
	}
	return Workload{}, errors.New("dataset: failed to synthesize a why-not workload; try a larger dataset or smaller target rank")
}

// atOrigin counts the points whose every coordinate is zero.
func atOrigin(pts []vec.Point) int {
	n := 0
	for _, p := range pts {
		if !slices.ContainsFunc(p, func(v float64) bool { return v != 0 }) {
			n++
		}
	}
	return n
}

// synthesizeAtRank returns a fresh point whose ranking under w is exactly
// targetRank: a copy of the targetRank-th point shrunk by an epsilon, so
// that exactly targetRank-1 points score strictly better (up to ties in the
// underlying data, which the caller re-checks).
func synthesizeAtRank(ds *Dataset, w vec.Weight, targetRank int) vec.Point {
	scores := make([]float64, len(ds.Points))
	idx := make([]int, len(ds.Points))
	for i, p := range ds.Points {
		scores[i] = vec.Score(w, p)
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	anchor := ds.Points[idx[targetRank-1]]
	q := vec.Clone(anchor)
	nonzero := false
	for i := range q {
		q[i] *= 1 - 1e-9
		if q[i] > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		return nil // the anchor is the origin; shrinking cannot help
	}
	return q
}

// perturbWeight adds truncated Gaussian noise to a weighting vector and
// re-normalizes onto the simplex.
func perturbWeight(rng *rand.Rand, w vec.Weight, sigma float64) vec.Weight {
	out := make(vec.Weight, len(w))
	sum := 0.0
	for i := range w {
		v := w[i] + rng.NormFloat64()*sigma
		if v < 1e-4 {
			v = 1e-4
		}
		out[i] = v
		sum += v
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
