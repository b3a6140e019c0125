package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tuner"
)

// Fig10 reproduces the dataflow trade-off study (Figure 10): runtime and
// energy of the five Table 3 dataflows across five DNN models on 256 PEs
// with 32 GB/s NoC bandwidth, split by operator class, plus the adaptive
// per-operator dataflow of column (f).
func Fig10(w io.Writer, opt Options) error {
	cfg := hw.Accel256()
	zoo := models.EvaluationModels()
	if opt.Quick {
		zoo = zoo[:2]
	}
	fmt.Fprintln(w, "Figure 10: runtime (cycles) and energy (mJ) of five dataflows, 256 PEs, 32 GB/s")

	for _, m := range zoo {
		fmt.Fprintf(w, "\n(%s)\n", m.Name)
		tw := newTab(w)
		fmt.Fprintln(tw, "dataflow\truntime\tenergy (mJ)\tearly\tlate\tpoint-wise\tdepth-wise\tFC\ttransposed\tagg-res\tunmapped")
		for _, df := range dataflows.All() {
			t := tuner.Sum(m, tuner.Fixed(df, cfg))
			fmt.Fprintf(tw, "%s\t%s\t%.2f", df.Name, fmtEng(float64(t.Runtime)), mJ(t.EnergyPJ))
			for _, cl := range []models.Class{models.EarlyConv, models.LateConv, models.Pointwise,
				models.Depthwise, models.FullyConn, models.Transposed, models.AggResidual} {
				fmt.Fprintf(tw, "\t%s", fmtEng(float64(t.ByClass[cl].Runtime)))
			}
			fmt.Fprintf(tw, "\t%d\n", t.Unmapped)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	// Column (f): averages across models per dataflow, plus adaptive.
	fmt.Fprintln(w, "\n(f) Average across models, plus the adaptive per-layer dataflow")
	tw := newTab(w)
	fmt.Fprintln(tw, "dataflow\ttotal runtime\ttotal energy (mJ)")
	var bestFixedRT int64
	var bestFixedE float64
	for i, df := range dataflows.All() {
		var rt int64
		var e float64
		for _, m := range zoo {
			t := tuner.Sum(m, tuner.Fixed(df, cfg))
			rt += t.Runtime
			e += t.EnergyPJ
		}
		if i == 0 || rt < bestFixedRT {
			bestFixedRT = rt
		}
		if i == 0 || e < bestFixedE {
			bestFixedE = e
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\n", df.Name, fmtEng(float64(rt)), mJ(e))
	}
	var adRT int64
	var adE float64
	for _, m := range zoo {
		adRT += tuner.Sum(m, tuner.Best(dataflows.All(), cfg, tuner.MinRuntime)).Runtime
		adE += tuner.Sum(m, tuner.Best(dataflows.All(), cfg, tuner.MinEnergy)).EnergyPJ
	}
	fmt.Fprintf(tw, "Adaptive\t%s\t%.2f\n", fmtEng(float64(adRT)), mJ(adE))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "adaptive vs best fixed dataflow: %.1f%% runtime reduction, %.1f%% energy reduction\n",
		100*(1-float64(adRT)/float64(bestFixedRT)), 100*(1-adE/bestFixedE))
	fmt.Fprintln(w, "(paper reports 37% runtime and 10% energy reduction potential)")
	return nil
}
