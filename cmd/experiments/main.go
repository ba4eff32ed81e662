// Command experiments regenerates the paper's evaluation (Figures 7–12):
// for every figure it sweeps the Table 1 parameter ranges over the same
// datasets (with synthetic stand-ins for NBA and Household, see DESIGN.md),
// runs MQP, MWK and MQWK, verifies every refinement, and prints the total
// running time and penalty series the paper reports.
//
//	experiments -figure all -scale 0.1 -seed 1 -csv results.csv
//
// Scale multiplies |P|, |S| and |Q|; scale 1 is the paper's configuration,
// scale 0.05–0.1 reproduces every qualitative shape in minutes. The harness
// times the oracle path (nil core.Source), where the default Table-1 cell at
// scale 1 costs about three minutes (MQWK 188 s, measured), so a full sweep
// is hours; the product path answers the same cell in 0.34 s (ROADMAP item
// 4, which decides which path the figures report). EXPERIMENTS.md, the
// committed runs, is pending under that item.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"wqrtq/internal/experiment"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 7..12 or all")
	scale := flag.Float64("scale", 0.1, "scale factor for |P|, |S|, |Q| (1 = paper scale)")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "also write results to this CSV file")
	quiet := flag.Bool("quiet", false, "suppress per-cell progress")
	flag.Parse()

	cfg := experiment.Config{Scale: *scale, Seed: *seed}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	runner := experiment.NewRunner(cfg)

	var rows []experiment.Row
	var err error
	if *figure == "all" {
		rows, err = runner.RunAll()
	} else {
		var fig int
		fig, err = strconv.Atoi(*figure)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bad -figure %q\n", *figure)
			os.Exit(2)
		}
		rows, err = runner.RunFigure(fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	experiment.PrintTable(os.Stdout, rows)
	experiment.CheckShapes(rows).Print(os.Stdout)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := experiment.WriteCSV(f, rows); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(rows), *csvPath)
	}
}
