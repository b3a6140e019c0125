package experiments

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// The ablations quantify the design choices DESIGN.md calls out beyond
// the paper's own Table 5: NoC topology, ALU vector width, uniform
// sparsity (Section 4.4), PE scaling, and the auto-tuner (Section 7's
// future work) against fixed and adaptive dataflows.

// AblationNoC compares the NoC topologies of Table 2's implementation
// choices on one layer under the KC-P dataflow.
func AblationNoC(w io.Writer, _ Options) error {
	vgg := models.VGG16()
	li, _ := vgg.Find("CONV5")
	fmt.Fprintln(w, "Ablation: NoC topology (VGG16 CONV5, KC-P, 256 PEs)")
	topos := []struct {
		name string
		m    noc.Model
	}{
		{"bus-32", withRed(noc.Bus(32))},
		{"crossbar-32", withRed(noc.Crossbar(32))},
		{"mesh-16x16", withRed(noc.Mesh(16))},
		{"tree-256", noc.Tree(256)},
		{"systolic-256", noc.SystolicRow(256)},
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "topology\tbandwidth\tlatency\truntime (cyc)\tutilization\tbottleneck")
	for _, tp := range topos {
		cfg := hw.Config{Name: tp.name, NumPEs: 256, NoCs: []noc.Model{tp.m}}.Normalize()
		r, err := core.AnalyzeDataflow(dataflows.Get("KC-P"), li.Layer, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.0f/cyc\t%d\t%d\t%.1f%%\t%s\n",
			tp.name, tp.m.Bandwidth, tp.m.AvgLatency, r.Runtime, 100*r.Utilization(), r.Bottleneck)
	}
	return tw.Flush()
}

func withRed(m noc.Model) noc.Model {
	m.Reduction = true
	return m
}

// AblationSparsity sweeps the uniform weight/activation density of
// Section 4.4 and reports how runtime and energy scale.
func AblationSparsity(w io.Writer, _ Options) error {
	base := models.VGG16()
	li, _ := base.Find("CONV8")
	cfg := hw.Accel256()
	fmt.Fprintln(w, "Ablation: uniform sparsity (VGG16 CONV8, KC-P)")
	tw := newTab(w)
	fmt.Fprintln(tw, "weight density\tactivation density\truntime (cyc)\teffective MACs\tenergy (uJ)")
	for _, d := range []float64{1.0, 0.75, 0.5, 0.25, 0.1} {
		l := li.Layer
		l.Density[tensor.Weight] = d
		l.Density[tensor.Input] = (1 + d) / 2
		r, err := core.AnalyzeDataflow(dataflows.Get("KC-P"), l, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.2f\t%.2f\t%d\t%d\t%.1f\n",
			d, (1+d)/2, r.Runtime, r.Activity().MACs, r.EnergyDefault().OnChip()/1e6)
	}
	return tw.Flush()
}

// AblationVectorWidth sweeps the PE ALU width: wider ALUs shift the
// bottleneck from compute to the NoC.
func AblationVectorWidth(w io.Writer, _ Options) error {
	vgg := models.VGG16()
	li, _ := vgg.Find("CONV5")
	fmt.Fprintln(w, "Ablation: PE vector width (VGG16 CONV5, KC-P, 256 PEs, 32 GB/s)")
	tw := newTab(w)
	fmt.Fprintln(tw, "vector width\truntime (cyc)\tpeak MAC/cyc\tachieved MAC/cyc\tbottleneck")
	for _, vw := range []int{1, 2, 4, 8, 16} {
		cfg := hw.Accel256()
		cfg.VectorWidth = vw
		r, err := core.AnalyzeDataflow(dataflows.Get("KC-P"), li.Layer, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%d\t%.0f\t%.1f\t%s\n",
			vw, r.Runtime, cfg.PeakMACsPerCycle(), r.Throughput(), r.Bottleneck)
	}
	return tw.Flush()
}

// AblationPEScaling sweeps the PE count per dataflow, exposing each
// style's parallelism ceiling (the under-utilization arguments of the
// paper's introduction).
func AblationPEScaling(w io.Writer, _ Options) error {
	vgg := models.VGG16()
	li, _ := vgg.Find("CONV5")
	fmt.Fprintln(w, "Ablation: PE scaling (VGG16 CONV5, utilization per dataflow)")
	tw := newTab(w)
	fmt.Fprint(tw, "PEs")
	for _, n := range dataflows.Names {
		fmt.Fprintf(tw, "\t%s", n)
	}
	fmt.Fprintln(tw)
	for _, pes := range []int{64, 128, 256, 512, 1024} {
		cfg := hw.Accel256()
		cfg.NumPEs = pes
		fmt.Fprintf(tw, "%d", pes)
		for _, name := range dataflows.Names {
			r, err := core.AnalyzeDataflow(dataflows.Get(name), li.Layer, cfg)
			if err != nil {
				fmt.Fprint(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.1f%%", 100*r.Utilization())
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// AblationTuner compares fixed dataflows, the adaptive selection of
// Section 5.1, and the tile-tuning auto-tuner of Section 7 on a model
// subset.
func AblationTuner(w io.Writer, opt Options) error {
	m := models.ResNet50()
	if opt.Quick {
		m.Layers = m.Layers[:6]
	}
	cfg := hw.Accel256()
	fmt.Fprintf(w, "Ablation: auto-tuner vs fixed/adaptive dataflows (%s, %d layer shapes)\n", m.Name, len(m.Layers))
	tw := newTab(w)
	fmt.Fprintln(tw, "strategy\truntime (cyc)\tvs best fixed")

	var bestFixed int64
	var bestName string
	for _, df := range dataflows.All() {
		t := tuner.Sum(m, tuner.Fixed(df, cfg))
		if t.Unmapped > 0 {
			continue
		}
		fmt.Fprintf(tw, "fixed %s\t%s\t\n", df.Name, fmtEng(float64(t.Runtime)))
		if bestName == "" || t.Runtime < bestFixed {
			bestName, bestFixed = df.Name, t.Runtime
		}
	}

	adaptive := tuner.Sum(m, tuner.Best(dataflows.All(), cfg, tuner.MinRuntime)).Runtime
	fmt.Fprintf(tw, "adaptive (5 fixed)\t%s\t%.2fx\n",
		fmtEng(float64(adaptive)), float64(bestFixed)/float64(adaptive))

	tuned := tuner.Sum(m, tuner.Tuned(cfg, tuner.Options{Objective: tuner.MinRuntime}))
	if tuned.Unmapped > 0 {
		return fmt.Errorf("ablation: the tuner cannot map %d %s layers", tuned.Unmapped, m.Name)
	}
	fmt.Fprintf(tw, "auto-tuned (tile search)\t%s\t%.2fx\n",
		fmtEng(float64(tuned.Runtime)), float64(bestFixed)/float64(tuned.Runtime))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "best fixed dataflow: %s\n", bestName)
	return nil
}

// AblationBatch sweeps the batch size N on a fully connected layer:
// batching is the classic lever for weight reuse in GEMM-dominated
// workloads (each weight serves N inputs before eviction).
func AblationBatch(w io.Writer, _ Options) error {
	fmt.Fprintln(w, "Ablation: batch size on a 1024x1024 FC layer (KC-P style)")
	tw := newTab(w)
	fmt.Fprintln(tw, "batch N\truntime (cyc)\tcyc per sample\tweight reuse\tenergy/sample (uJ)")
	for _, n := range []int{1, 2, 4, 8, 16} {
		l := tensor.Layer{
			Name: "fc", Op: tensor.FullyConnected,
			Sizes: tensor.Sizes{tensor.N: n, tensor.K: 1024, tensor.C: 1024},
		}.Normalize()
		r := analyzeOrSkip(dataflows.Get("KC-P"), l, hw.Accel256())
		if r == nil {
			continue
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f\n",
			n, r.Runtime, r.Runtime/int64(n),
			r.ReuseFactor(tensor.Weight), r.EnergyDefault().OnChip()/float64(n)/1e6)
	}
	return tw.Flush()
}

// Ablations runs every ablation in sequence.
func Ablations(w io.Writer, opt Options) error {
	for _, f := range []func(io.Writer, Options) error{
		AblationNoC, AblationSparsity, AblationSparseImbalance,
		AblationVectorWidth, AblationBatch, AblationPEScaling, AblationHetero, AblationTuner,
	} {
		if err := f(w, opt); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// AblationHetero evaluates the heterogeneous-chip design point of
// Section 5.1: two 128-PE sub-accelerators with opposite dataflow styles
// against homogeneous 2x128-PE chips, on MobileNetV2's mixed operators.
func AblationHetero(w io.Writer, _ Options) error {
	m := models.MobileNetV2()
	sub := subAccel(128)
	fmt.Fprintln(w, "Ablation: heterogeneous chip (2x128 PEs, MobileNetV2)")
	tw := newTab(w)
	fmt.Fprintln(tw, "chip\tlatency (cyc)\tpipeline bound (cyc/inf)\tenergy (mJ)")
	for _, df := range dataflows.All() {
		t, loads := chip(m, []dataflow.Dataflow{df, df}, sub)
		if t.Unmapped > 0 {
			continue
		}
		fmt.Fprintf(tw, "homogeneous %s\t%s\t%s\t%.1f\n",
			df.Name, fmtEng(float64(t.Runtime)), fmtEng(float64(slices.Max(loads))), mJ(t.EnergyPJ))
	}
	het, loads := chip(m, []dataflow.Dataflow{dataflows.Get("YX-P"), dataflows.Get("KC-P")}, sub)
	if het.Unmapped > 0 {
		return fmt.Errorf("ablation: the heterogeneous chip cannot map %d %s layers", het.Unmapped, m.Name)
	}
	bound := slices.Max(loads)
	fmt.Fprintf(tw, "heterogeneous YX-P+KC-P\t%s\t%s\t%.1f\n",
		fmtEng(float64(het.Runtime)), fmtEng(float64(bound)), mJ(het.EnergyPJ))
	if err := tw.Flush(); err != nil {
		return err
	}
	// Utilization: the chip's total load over (stages * bound).
	fmt.Fprintf(w, "pipeline utilization of the heterogeneous chip: %.0f%%\n",
		100*float64(het.Runtime)/float64(bound*int64(len(loads))))
	return nil
}

// subAccel is one sub-accelerator of the heterogeneous-chip ablation.
func subAccel(pes int) hw.Config {
	nm := noc.Bus(16)
	nm.Reduction = true
	return hw.Config{Name: "sub", NumPEs: pes, NoCs: []noc.Model{nm}}.Normalize()
}

// chip rolls m up on a chip of sub-accelerators, one per dataflow of
// dfs, each configured as cfg. Each layer runs on the sub-accelerator
// that runs it fastest, the first winning ties. One inference at a time,
// the chip's latency is the roll-up's runtime. loads[i] is
// sub-accelerator i's share of it: when the sub-accelerators pipeline a
// stream of inferences, the busiest one's load bounds the cycles per
// inference.
func chip(m models.Model, dfs []dataflow.Dataflow, cfg hw.Config) (tuner.Totals, []int64) {
	t := tuner.Sum(m, tuner.Best(dfs, cfg, tuner.MinRuntime))
	loads := make([]int64, len(dfs))
	for i, ch := range t.Choices {
		if ch.Result != nil {
			loads[ch.Index] += ch.Result.Runtime * int64(m.Layers[i].Count)
		}
	}
	return t, loads
}

// AblationSparseImbalance contrasts ideal zero-skipping with the
// expected-maximum load imbalance across PEs (the statistical-sparsity
// extension of Section 4.4's future work).
func AblationSparseImbalance(w io.Writer, _ Options) error {
	vgg := models.VGG16()
	li, _ := vgg.Find("CONV8")
	fmt.Fprintln(w, "Ablation: sparse load imbalance (VGG16 CONV8, KC-P, weight density sweep)")
	tw := newTab(w)
	fmt.Fprintln(tw, "density\tideal runtime\timbalanced runtime\tpenalty")
	for _, d := range []float64{1.0, 0.5, 0.25, 0.1} {
		l := li.Layer
		l.Density[tensor.Weight] = d
		ideal := analyzeOrSkip(dataflows.Get("KC-P"), l, hw.Accel256())
		cfgI := hw.Accel256()
		cfgI.SparseImbalance = true
		imb := analyzeOrSkip(dataflows.Get("KC-P"), l, cfgI)
		if ideal == nil || imb == nil {
			continue
		}
		fmt.Fprintf(tw, "%.2f\t%d\t%d\t%.1f%%\n", d, ideal.Runtime, imb.Runtime,
			100*(float64(imb.Runtime)/float64(ideal.Runtime)-1))
	}
	return tw.Flush()
}
