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
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
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

// modelCost aggregates runtime (cycles) and on-chip energy (pJ) of a
// whole model under one dataflow, split by operator class.
type modelCost struct {
	runtime  int64
	energyPJ float64
	byClass  [models.NumClasses]struct {
		runtime  int64
		energyPJ float64
	}
	unmapped int
}

func costOfModel(m models.Model, df dataflow.Dataflow, cfg hw.Config) modelCost {
	var mc modelCost
	for _, li := range m.Layers {
		r := analyzeOrSkip(df, li.Layer, cfg)
		if r == nil {
			mc.unmapped++
			continue
		}
		e := r.EnergyDefault().OnChip() * float64(li.Count)
		rt := r.Runtime * int64(li.Count)
		mc.runtime += rt
		mc.energyPJ += e
		mc.byClass[li.Class].runtime += rt
		mc.byClass[li.Class].energyPJ += e
	}
	return mc
}

// bestPerLayer implements the adaptive dataflow of Section 5.1: per
// layer, the dataflow minimizing the given metric.
func bestPerLayer(m models.Model, cfg hw.Config, metric func(*core.Result) float64) modelCost {
	var mc modelCost
	for _, li := range m.Layers {
		var best *core.Result
		bestV := 0.0
		for _, df := range dataflows.All() {
			r := analyzeOrSkip(df, li.Layer, cfg)
			if r == nil {
				continue
			}
			if v := metric(r); best == nil || v < bestV {
				best, bestV = r, v
			}
		}
		if best == nil {
			mc.unmapped++
			continue
		}
		e := best.EnergyDefault().OnChip() * float64(li.Count)
		rt := best.Runtime * int64(li.Count)
		mc.runtime += rt
		mc.energyPJ += e
		cl := models.Classify(li.Layer)
		mc.byClass[cl].runtime += rt
		mc.byClass[cl].energyPJ += e
	}
	return mc
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
