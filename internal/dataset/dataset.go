// Package dataset provides the data used by the paper's evaluation (§5.1):
// the synthetic Independent and Anti-correlated distributions, synthetic
// stand-ins for the two real datasets (NBA, 17K × 13, and Household,
// 127K × 6 — see DESIGN.md for the substitution rationale), CSV
// serialization, and the why-not workload generator that controls the
// "actual ranking of q under Wm" experimental parameter.
//
// All generators are deterministic in their seed. All attribute values are
// non-negative with smaller values preferable, matching §3.
package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"wqrtq/internal/rtree"
	"wqrtq/internal/vec"
)

// Dataset is an in-memory point collection; record ids are point indices.
type Dataset struct {
	Dim    int
	Points []vec.Point
	Name   string
}

// Tree bulk-loads an R-tree over the dataset.
func (ds *Dataset) Tree(opts ...rtree.Options) *rtree.Tree {
	return rtree.Bulk(ds.Points, nil, opts...)
}

// Independent draws every attribute independently and uniformly from [0, 1)
// (§5.1: "all attribute values are generated independently using a uniform
// distribution").
func Independent(n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return &Dataset{Dim: d, Points: pts, Name: "independent"}
}

// Anticorrelated generates points close to the anti-diagonal hyperplane
// Σx = d/2 with small jitter, so that a point good in one dimension is bad
// in the others (§5.1).
func Anticorrelated(n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		// Point on the plane Σx = d/2 via normalized exponentials...
		sum := 0.0
		for j := range p {
			p[j] = rng.ExpFloat64()
			sum += p[j]
		}
		for j := range p {
			p[j] = clamp01(p[j]/sum*float64(d)/2 + rng.NormFloat64()*0.05)
		}
		pts[i] = p
	}
	return &Dataset{Dim: d, Points: pts, Name: "anticorrelated"}
}

// Correlated generates points along the main diagonal with jitter: a point
// good in one dimension tends to be good in all.
func Correlated(n, d int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Point, n)
	for i := range pts {
		t := rng.Float64()
		p := make(vec.Point, d)
		for j := range p {
			p[j] = clamp01(t + rng.NormFloat64()*0.1)
		}
		pts[i] = p
	}
	return &Dataset{Dim: d, Points: pts, Name: "correlated"}
}

// NBALike is the synthetic stand-in for the paper's NBA dataset: 13
// positively correlated, heavy-tailed "cost-space" player statistics with
// heterogeneous per-dimension scales (a strong player scores low in every
// dimension, but dimensions retain independent noise). The default
// cardinality used by the paper is 17,000.
func NBALike(n int, seed int64) *Dataset {
	const d = 13
	rng := rand.New(rand.NewSource(seed))
	scales := make([]float64, d)
	for j := range scales {
		scales[j] = 1 + 9*rng.Float64()
	}
	pts := make([]vec.Point, n)
	for i := range pts {
		talent := rng.Float64()
		talent *= talent // heavy tail: few excellent players
		p := make(vec.Point, d)
		for j := range p {
			noise := 0.25 * rng.NormFloat64()
			v := (talent + 0.35*rng.Float64() + noise) * scales[j]
			if v < 0 {
				v = 0
			}
			p[j] = v
		}
		pts[i] = p
	}
	return &Dataset{Dim: d, Points: pts, Name: "nba"}
}

// HouseholdLike is the synthetic stand-in for the paper's Household
// dataset: 6 expenditure shares of an annual income. Shares compete for the
// same budget, giving the mild anti-correlation of the real data. The
// paper's cardinality is 127,000.
func HouseholdLike(n int, seed int64) *Dataset {
	const d = 6
	rng := rand.New(rand.NewSource(seed))
	// Long-run average share per expenditure type.
	priors := [d]float64{0.30, 0.20, 0.15, 0.15, 0.12, 0.08}
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		sum := 0.0
		for j := range p {
			p[j] = rng.ExpFloat64() * priors[j]
			sum += p[j]
		}
		for j := range p {
			p[j] = p[j] / sum * 100 // percentage of income
		}
		pts[i] = p
	}
	return &Dataset{Dim: d, Points: pts, Name: "household"}
}

// ByName builds one of the named distributions. The real-data stand-ins
// (nba, household) have fixed dimensionality; d is ignored for them.
func ByName(name string, n, d int, seed int64) (*Dataset, error) {
	switch name {
	case "independent":
		return Independent(n, d, seed), nil
	case "anticorrelated":
		return Anticorrelated(n, d, seed), nil
	case "correlated":
		return Correlated(n, d, seed), nil
	case "nba":
		return NBALike(n, seed), nil
	case "household":
		return HouseholdLike(n, seed), nil
	case "clustered":
		return Clustered(n, d, 5, seed), nil
	}
	return nil, fmt.Errorf("dataset: unknown distribution %q", name)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// WriteCSV writes the points, one row per point.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rec := make([]string, ds.Dim)
	for _, p := range ds.Points {
		for j, v := range p {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV (or any numeric CSV with one
// point per row). Every row is parsed into one array, from which the
// points are cut: one allocation for the coordinates, not one per row.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	var coords []float64
	dim, rows := 0, 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		dim = len(rec)
		rows++
		for _, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d: %w", rows, err)
			}
			coords = append(coords, v)
		}
	}
	if rows == 0 {
		return nil, errors.New("dataset: empty CSV")
	}
	pts := make([]vec.Point, rows)
	for i := range pts {
		pts[i] = coords[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return &Dataset{Dim: dim, Points: pts, Name: "csv"}, nil
}

// Clustered generates points in Gaussian clusters around random centers, a
// common skyline/preference-query stress distribution complementing the
// paper's Independent and Anti-correlated sets.
func Clustered(n, d, clusters int, seed int64) *Dataset {
	if clusters < 1 {
		clusters = 1
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([]vec.Point, clusters)
	for i := range centers {
		c := make(vec.Point, d)
		for j := range c {
			c[j] = 0.15 + 0.7*rng.Float64()
		}
		centers[i] = c
	}
	pts := make([]vec.Point, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		p := make(vec.Point, d)
		for j := range p {
			p[j] = clamp01(c[j] + rng.NormFloat64()*0.05)
		}
		pts[i] = p
	}
	return &Dataset{Dim: d, Points: pts, Name: "clustered"}
}
