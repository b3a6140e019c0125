// Benchmarks regenerating the paper's evaluation: one benchmark per
// table/figure (running the same harness as cmd/experiments), plus
// micro-benchmarks of the cost model and DSE themselves (the paper quotes
// ~10 ms per MAESTRO run and 0.17M designs/s DSE throughput).
package maestro_test

import (
	"io"
	"testing"

	maestro "repro"
	"repro/internal/dse"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// benchExperiment runs one experiment harness per iteration.
func benchExperiment(b *testing.B, f func(io.Writer, experiments.Options) error, quick bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := f(io.Discard, experiments.Options{Quick: quick}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the reuse-opportunity table.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, experiments.Table1, false) }

// BenchmarkTable3 round-trips the five dataflow definitions.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, experiments.Table3, false) }

// BenchmarkTable4 classifies the model zoo.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, experiments.Table4, false) }

// BenchmarkTable5 runs the multicast/reduction/bandwidth ablation.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, experiments.Table5, false) }

// BenchmarkFig9 validates the analytical model against the simulator on
// layer subsets (the full VGG16+AlexNet sweep runs via cmd/experiments).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, experiments.Fig9, true) }

// BenchmarkFig10 prices five dataflows across the model zoo.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, experiments.Fig10, false) }

// BenchmarkFig11 computes reuse factors and bandwidth requirements.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, experiments.Fig11, false) }

// BenchmarkFig12 computes the energy breakdowns.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, experiments.Fig12, false) }

// BenchmarkFig13 runs the four design-space explorations (quick grids).
func BenchmarkFig13(b *testing.B) { benchExperiment(b, experiments.Fig13, true) }

// BenchmarkHeadline reproduces the abstract's design-point comparison.
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, experiments.Headline, true) }

// BenchmarkAnalyzeLayer measures one analytical cost-model invocation on
// a VGG16 layer (the paper quotes ~10 ms per MAESTRO run; this
// implementation is considerably faster because the case enumeration is
// closed-form and memoized).
func BenchmarkAnalyzeLayer(b *testing.B) {
	vgg := maestro.VGG16()
	li, _ := vgg.Find("CONV11")
	df := maestro.DataflowByName("KC-P")
	cfg := maestro.Accel256()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := maestro.Analyze(df, li.Layer, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Runtime == 0 {
			b.Fatal("zero runtime")
		}
	}
}

// BenchmarkAnalyzeModel prices all of VGG16 under one dataflow.
func BenchmarkAnalyzeModel(b *testing.B) {
	vgg := maestro.VGG16()
	df := maestro.DataflowByName("YR-P")
	cfg := maestro.Accel256()
	for i := 0; i < b.N; i++ {
		for _, li := range vgg.Layers {
			if _, err := maestro.Analyze(df, li.Layer, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulator measures the step-accurate reference simulator on a
// mid-size layer (the RTL substitute of Figure 9; the paper's RTL costs
// hours per layer).
func BenchmarkSimulator(b *testing.B) {
	layer := maestro.Conv2D("bench", 32, 16, 28, 3, 1)
	df := maestro.DataflowByName("KC-P")
	cfg := maestro.MAERI64()
	spec, err := maestro.Resolve(df, layer, cfg.NumPEs)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSE measures design-space exploration throughput and reports
// the effective designs/second rate (Figure 13(c); the paper averages
// 0.17M designs/s).
func BenchmarkDSE(b *testing.B) {
	vgg := maestro.VGG16()
	li, _ := vgg.Find("CONV11")
	space := maestro.DSESpace{
		Layer: li.Layer,
		Template: maestro.DSETemplate{
			Name: "KC-P", Build: maestro.KCPSized,
			P1: []int{16, 64, 256}, P2: []int{8, 32},
		},
		PEs:           []int{64, 128, 256, 512},
		BWs:           []float64{8, 32, 128},
		L1Grid:        maestro.DefaultGrid(64, 1<<16, 2),
		L2Grid:        maestro.DefaultGrid(1<<12, 1<<22, 1.5),
		AreaBudgetMM2: 16,
		PowerBudgetMW: 450,
		Cost:          maestro.Default28nm(),
	}
	var rate float64
	for i := 0; i < b.N; i++ {
		pts, stats := dse.Explore(space)
		if len(pts) == 0 {
			b.Fatal("no designs")
		}
		rate = stats.Rate()
	}
	b.ReportMetric(rate, "designs/s")
}

// BenchmarkAblations runs the extension ablation suite (NoC topology,
// sparsity, vector width, PE scaling, auto-tuner).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, experiments.Ablations, true) }

// BenchmarkTuner measures the Section 7 auto-tuner on one layer.
func BenchmarkTuner(b *testing.B) {
	layer := maestro.Conv2D("bench", 64, 64, 28, 3, 1)
	cfg := maestro.Accel256()
	for i := 0; i < b.N; i++ {
		if _, err := maestro.TuneLayer(layer, cfg, maestro.TunerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimAlexNetConv2 measures the simulator on a full AlexNet
// layer at Eyeriss scale (one Figure 9 data point).
func BenchmarkSimAlexNetConv2(b *testing.B) {
	alex := maestro.AlexNet()
	li, _ := alex.Find("CONV2")
	cfg := maestro.Eyeriss168()
	spec, err := maestro.Resolve(maestro.DataflowByName("YR-P"), li.Layer, cfg.NumPEs)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := maestro.Simulate(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
