// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [fig9|fig10|fig11|fig12|fig13|table1|table3|table4|table5|headline|ablation|all]
//
// Each experiment prints the rows/series the corresponding paper table or
// figure reports; EXPERIMENTS.md records paper-vs-measured values.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "trimmed workloads for fast runs")
	csvDir := flag.String("csvdir", "", "also dump the Figure 13 design spaces as CSVs into this directory")
	flag.Parse()
	opt := experiments.Options{Quick: *quick}

	kind := "all"
	if flag.NArg() > 0 {
		kind = flag.Arg(0)
	}
	var selected []experiments.Experiment
	var names []string
	for _, e := range experiments.All {
		names = append(names, e.Name)
		if kind == "all" || kind == e.Name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of %v or all\n", kind, names)
		os.Exit(2)
	}
	if *csvDir != "" {
		runs, err := experiments.RunFig13(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig13:", err)
			os.Exit(1)
		}
		if err := experiments.WriteFig13CSVs(*csvDir, runs); err != nil {
			fmt.Fprintln(os.Stderr, "csvdir:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d design-space CSVs to %s\n", len(runs), *csvDir)
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Println("\n" + experiments.Separator)
		}
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
	}
}
