// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): model validation (Fig. 9), dataflow trade-offs
// across five DNN models (Fig. 10), reuse factors and NoC bandwidth
// requirements (Fig. 11), energy breakdowns (Fig. 12), the hardware
// design-space exploration (Fig. 13 and the abstract's headline numbers),
// and Tables 1/3/4/5. Each experiment prints the same rows/series the
// paper plots; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Options configures an experiment run.
type Options struct {
	// Quick trims the workloads (layer subsets, smaller DSE grids) for CI
	// and benchmarking loops; the full runs reproduce the paper's scale.
	Quick bool
}

// Experiment is one table or figure harness, named as on the
// experiments command line.
type Experiment struct {
	Name string
	Run  func(io.Writer, Options) error
}

// All lists every experiment in the order `experiments all` prints them,
// which is the section order of the committed experiments_output.txt.
var All = []Experiment{
	{"table1", Table1},
	{"table3", Table3},
	{"table4", Table4},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"table5", Table5},
	{"fig13", Fig13},
	{"headline", Headline},
	{"ablation", Ablations},
}

// Separator is the line `experiments all` prints, after a blank line,
// between two experiments.
const Separator = "================================================================"

// analyzeOrSkip analyzes one layer under one dataflow; nil result means
// the dataflow cannot map the layer (reported by the caller).
func analyzeOrSkip(df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) *core.Result {
	r, err := core.AnalyzeDataflow(df, layer, cfg)
	if err != nil {
		return nil
	}
	return r
}

// newTab returns a tabwriter for aligned experiment tables.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// fmtEng renders a value in engineering notation (k/M/G).
func fmtEng(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// mJ converts picojoules to millijoules.
func mJ(pj float64) float64 { return pj * 1e-9 }
