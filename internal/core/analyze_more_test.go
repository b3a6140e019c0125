package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// TestThreeLevelHierarchy exercises a dataflow with two Cluster
// directives (three levels), which the paper's recursive multi-cluster
// analysis must handle.
func TestThreeLevelHierarchy(t *testing.T) {
	layer := tensor.Layer{
		Name: "deep", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 8, tensor.C: 8, tensor.Y: 12, tensor.X: 12, tensor.R: 3, tensor.S: 3},
	}.Normalize()
	df := dataflow.Dataflow{Name: "3lvl", Directives: []dataflow.Directive{
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.ClusterOf(dataflow.Lit(4)),
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.K),
		dataflow.TMap(dataflow.Lit(4), dataflow.Lit(4), tensor.C),
		dataflow.ClusterOf(dataflow.Lit(2)),
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.C),
	}}
	r := mustAnalyze(t, df, layer, testHW(16))
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if len(r.BufRead) != 4 { // 3 levels + leaf L1
		t.Fatalf("buffer levels = %d; want 4", len(r.BufRead))
	}
}

// TestFullyConnected runs a GEMM-shaped layer through the engine.
func TestFullyConnected(t *testing.T) {
	layer := tensor.Layer{
		Name: "fc", Op: tensor.FullyConnected,
		Sizes: tensor.Sizes{tensor.N: 4, tensor.K: 64, tensor.C: 256},
	}.Normalize()
	df := dataflow.Dataflow{Name: "fcflow", Directives: []dataflow.Directive{
		dataflow.SMap(dataflow.Lit(8), dataflow.Lit(8), tensor.K),
		dataflow.TMap(dataflow.Lit(32), dataflow.Lit(32), tensor.C),
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.N),
	}}
	r := mustAnalyze(t, df, layer, testHW(8))
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if r.MACs != 4*64*256 {
		t.Fatalf("FC MACs = %d", r.MACs)
	}
	// With C tiled and outer to N, partial sums spill: expect L2 output
	// read-modify-write traffic.
	if r.L2Read(tensor.Output) == 0 {
		t.Error("expected partial-sum re-reads with tiled reduction dim")
	}
}

// TestLSTMGateGemm runs an LSTM-style GEMM (batched over sequence steps).
func TestLSTMGateGemm(t *testing.T) {
	layer := tensor.Layer{
		Name: "lstm", Op: tensor.GEMM,
		Sizes: tensor.Sizes{tensor.N: 16, tensor.K: 128, tensor.C: 96},
	}.Normalize()
	df := dataflow.Dataflow{Name: "gemm", Directives: []dataflow.Directive{
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.N),
		dataflow.SMap(dataflow.Lit(4), dataflow.Lit(4), tensor.K),
		dataflow.TMap(dataflow.Lit(96), dataflow.Lit(96), tensor.C),
	}}
	r := mustAnalyze(t, df, layer, testHW(16))
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestTransposedConv checks the up-scale substitution end to end: the
// structured input sparsity must shrink effective compute and runtime
// without breaking dense-psum conservation.
func TestTransposedConv(t *testing.T) {
	layer := tensor.Layer{
		Name: "trconv", Op: tensor.TransposedConv,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 8, tensor.C: 16, tensor.Y: 18, tensor.X: 18, tensor.R: 3, tensor.S: 3},
	}
	layer.Density[tensor.Input] = 0.25
	layer = layer.Normalize()
	df := outputStationary()
	r := mustAnalyze(t, df, layer, testHW(8))
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if r.Activity().MACs >= r.MACs {
		t.Errorf("effective MACs %d not reduced from dense %d", r.Activity().MACs, r.MACs)
	}
}

// TestVectorWidthSpeedsCompute verifies the ALU width parameter.
func TestVectorWidthSpeedsCompute(t *testing.T) {
	layer := smallConv()
	base := testHW(4)
	wide := testHW(4)
	wide.VectorWidth = 4
	r1 := mustAnalyze(t, outputStationary(), layer, base)
	r4 := mustAnalyze(t, outputStationary(), layer, wide)
	if r4.Runtime >= r1.Runtime {
		t.Errorf("vector width 4 runtime %d >= width 1 runtime %d", r4.Runtime, r1.Runtime)
	}
	if err := r4.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeDataflowCtxSpans: a traced one-shot analysis records the
// two phase spans every cached path records, "core.profile" then
// "core.price", and answers exactly what AnalyzeDataflow answers.
func TestAnalyzeDataflowCtxSpans(t *testing.T) {
	layer, cfg := smallConv(), testHW(4)
	rec := obs.NewRecorder()
	got, err := AnalyzeDataflowCtx(obs.WithRecorder(context.Background(), rec), outputStationary(), layer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := mustAnalyze(t, outputStationary(), layer, cfg); !reflect.DeepEqual(want, got) {
		t.Fatalf("traced result differs from AnalyzeDataflow\nuntraced: %+v\ntraced:   %+v", want, got)
	}
	var names []string
	for _, s := range rec.Snapshot() {
		names = append(names, s.Name)
	}
	if want := []string{"core.profile", "core.price"}; !slices.Equal(names, want) {
		t.Fatalf("spans = %v, want %v", names, want)
	}
}

// TestMismatchedPEsRejected: analyzing a spec against a different PE
// count must fail loudly.
func TestMismatchedPEsRejected(t *testing.T) {
	layer := smallConv()
	spec, err := dataflow.Resolve(outputStationary(), layer, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(spec, testHW(8)); err == nil {
		t.Error("PE mismatch accepted")
	}
}

// TestBatchedLayerConservation covers N > 1.
func TestBatchedLayerConservation(t *testing.T) {
	layer := tensor.Layer{
		Name: "batched", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 4, tensor.K: 4, tensor.C: 3, tensor.Y: 10, tensor.X: 10, tensor.R: 3, tensor.S: 3},
	}.Normalize()
	df := dataflow.Dataflow{Name: "batch", Directives: []dataflow.Directive{
		dataflow.TMap(dataflow.Lit(2), dataflow.Lit(2), tensor.N),
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.K),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
	}}
	r := mustAnalyze(t, df, layer, testHW(4))
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestSparseImbalance: with zero-skipping PEs under random sparsity, the
// expected slowest PE governs each step, so the imbalance-aware runtime
// must sit between the dense runtime and the ideal (mean) sparse one.
func TestSparseImbalance(t *testing.T) {
	dense := smallConv()
	sparse := dense
	sparse.Density[tensor.Weight] = 0.3
	cfg := testHW(4)
	rd := mustAnalyze(t, outputStationary(), dense, cfg)
	ideal := mustAnalyze(t, outputStationary(), sparse, cfg)
	cfgI := cfg
	cfgI.SparseImbalance = true
	imb := mustAnalyze(t, outputStationary(), sparse, cfgI)
	if !(ideal.Runtime <= imb.Runtime && imb.Runtime <= rd.Runtime) {
		t.Errorf("runtimes not ordered: ideal %d <= imbalanced %d <= dense %d",
			ideal.Runtime, imb.Runtime, rd.Runtime)
	}
	// Dense layers are unaffected by the flag.
	rdI := mustAnalyze(t, outputStationary(), dense, cfgI)
	if rdI.Runtime != rd.Runtime {
		t.Errorf("imbalance flag changed dense runtime: %d vs %d", rdI.Runtime, rd.Runtime)
	}
	if err := imb.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestConservationFilterTiled covers temporal filter tiling with an
// anchored window (the paper's Figure 5(A) playground shape): outputs
// accumulate in place while R/S taps stream.
func TestConservationFilterTiled(t *testing.T) {
	layer := tensor.Layer{
		Name: "ftile", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 4, tensor.C: 2, tensor.Y: 12, tensor.X: 12, tensor.R: 6, tensor.S: 6},
	}.Normalize()
	df := dataflow.Dataflow{Name: "ftile", Directives: []dataflow.Directive{
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.K),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.TMap(dataflow.Lit(2), dataflow.Lit(2), tensor.R), // 3 tap groups
		dataflow.TMap(dataflow.Lit(3), dataflow.Lit(3), tensor.S), // 2 tap groups
	}}
	r := mustAnalyze(t, df, layer, testHW(4))
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The output tile never moves during tap streaming, so outputs leave
	// exactly once.
	if got, want := r.L2Write(tensor.Output), layer.TensorSize(tensor.Output); got != want {
		t.Errorf("L2 output writes = %d; want %d", got, want)
	}
}
