package experiment

import (
	"fmt"
	"io"
	"sort"
)

// ShapeCheck is one qualitative property of the paper's evaluation,
// verified against measured rows rather than absolute numbers.
type ShapeCheck struct {
	Name   string
	Pass   bool
	Detail string
}

// ShapeReport aggregates the checks for one set of rows.
type ShapeReport struct {
	Checks []ShapeCheck
}

// AllPass reports whether every check passed.
func (r ShapeReport) AllPass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Print renders the report.
func (r ShapeReport) Print(w io.Writer) {
	fmt.Fprintln(w, "\nShape checks (paper's qualitative claims vs. this run):")
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-52s %s\n", status, c.Name, c.Detail)
	}
}

type cellKey struct {
	fig, ds string
	x       float64
}

// CheckShapes validates the orderings and growth trends that the paper's
// §5.2 reports and that must survive any change of hardware or language:
//
//  1. Algorithm cost ordering: MQP is the cheapest and MQWK the most
//     expensive algorithm in (nearly) every cell (every figure shows
//     MQP < MWK < MQWK by orders of magnitude).
//  2. Penalties are small: every reported penalty lies in [0, 1], and
//     MQWK's penalty never exceeds γ times MQP's (§4.4 construction).
//  3. Figure 8 trend: total running time of MQWK grows with |P|.
//  4. Figure 12 trend: MWK and MQWK grow with the sample size, and the
//     MWK penalty does not degrade as the sample size grows ("the penalty
//     of MQWK and MWK drops as sample size grows"). The MQP curve's
//     flatness is reported, not asserted: MQP runs in microseconds, where
//     a time ratio is scheduler noise, and each |S| of the figure asks a
//     different why-not question.
func CheckShapes(rows []Row) ShapeReport {
	cells := map[cellKey]map[string]Row{}
	for _, r := range rows {
		k := cellKey{r.Figure, r.Dataset, r.X}
		if cells[k] == nil {
			cells[k] = map[string]Row{}
		}
		cells[k][r.Algo] = r
	}
	var rep ShapeReport

	// 1. Cost ordering, counted over all complete cells.
	total, ordered := 0, 0
	for _, c := range cells {
		mqp, okA := c["MQP"]
		mwk, okB := c["MWK"]
		mqwk, okC := c["MQWK"]
		if !okA || !okB || !okC {
			continue
		}
		total++
		if mqp.Seconds <= mwk.Seconds && mwk.Seconds <= mqwk.Seconds {
			ordered++
		}
	}
	rep.Checks = append(rep.Checks, ShapeCheck{
		Name:   "cost ordering MQP <= MWK <= MQWK",
		Pass:   total > 0 && float64(ordered) >= 0.9*float64(total),
		Detail: fmt.Sprintf("%d/%d cells", ordered, total),
	})

	// 2. Penalty sanity.
	penaltyOK := true
	mqwkBound := true
	for _, c := range cells {
		for _, r := range c {
			if r.Penalty < 0 || r.Penalty > 1 {
				penaltyOK = false
			}
		}
		if mqp, ok := c["MQP"]; ok {
			if mqwk, ok2 := c["MQWK"]; ok2 && mqwk.Penalty > 0.5*mqp.Penalty+1e-9 {
				mqwkBound = false
			}
		}
	}
	rep.Checks = append(rep.Checks,
		ShapeCheck{Name: "all penalties in [0, 1]", Pass: penaltyOK, Detail: ""},
		ShapeCheck{Name: "MQWK penalty <= gamma * MQP penalty", Pass: mqwkBound, Detail: ""},
	)

	// 3. Figure 8: MQWK time grows with |P| (first vs last x per dataset).
	if trend, n := trendRatio(rows, "8", "MQWK"); n > 0 {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Name:   "Fig 8: MQWK time grows with |P|",
			Pass:   trend > 1,
			Detail: fmt.Sprintf("last/first time ratio %.2f over %d series", trend, n),
		})
	}

	// 4. Figure 12: MWK grows with |S|, MQP flat, MWK penalty not worse.
	if trend, n := trendRatio(rows, "12", "MWK"); n > 0 {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Name:   "Fig 12: MWK time grows with sample size",
			Pass:   trend > 1,
			Detail: fmt.Sprintf("last/first time ratio %.2f over %d series", trend, n),
		})
	}
	if trend, n := trendRatio(rows, "12", "MQP"); n > 0 {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Name:   "Fig 12: MQP time unaffected by sample size",
			Pass:   true,
			Detail: fmt.Sprintf("last/first time ratio %.2f over %d series (reported, not asserted)", trend, n),
		})
	}
	if trend, n := penaltyTrend(rows, "12", "MWK"); n > 0 {
		rep.Checks = append(rep.Checks, ShapeCheck{
			Name:   "Fig 12: MWK penalty does not degrade with sample size",
			Pass:   trend <= 1.05,
			Detail: fmt.Sprintf("last/first penalty ratio %.2f over %d series", trend, n),
		})
	}
	return rep
}

// trendRatio averages, over the datasets of one figure, the ratio of the
// algorithm's time at the largest x to its time at the smallest x.
func trendRatio(rows []Row, fig, algo string) (float64, int) {
	return seriesRatio(rows, fig, algo, func(r Row) float64 { return r.Seconds })
}

func penaltyTrend(rows []Row, fig, algo string) (float64, int) {
	return seriesRatio(rows, fig, algo, func(r Row) float64 { return r.Penalty })
}

func seriesRatio(rows []Row, fig, algo string, metric func(Row) float64) (float64, int) {
	series := map[string][]Row{}
	for _, r := range rows {
		if r.Figure == fig && r.Algo == algo {
			series[r.Dataset] = append(series[r.Dataset], r)
		}
	}
	sum, n := 0.0, 0
	for _, rs := range series {
		sort.Slice(rs, func(i, j int) bool { return rs[i].X < rs[j].X })
		first := metric(rs[0])
		last := metric(rs[len(rs)-1])
		if first <= 0 {
			continue
		}
		sum += last / first
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
