package viz

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/reuse"
	"repro/internal/tensor"
)

// conv1D is the 1D convolution of the paper's Figure 4/5 playground:
// X'=12 outputs under an S=6 filter (17 input columns in our
// input-coordinate convention).
func conv1D() tensor.Layer {
	return tensor.Layer{
		Name: "conv1d", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 1, tensor.C: 1, tensor.Y: 1, tensor.X: 17, tensor.R: 1, tensor.S: 6},
	}.Normalize()
}

// analysisFor resolves a playground dataflow on 3 PEs (6 for the
// clustered variant) and returns the requested level's reuse analysis.
func analysisFor(t *testing.T, pes, level int, dirs ...dataflow.Directive) *reuse.Analysis {
	t.Helper()
	spec, err := dataflow.Resolve(dataflow.Dataflow{Name: "fig5", Directives: dirs}, conv1D(), pes)
	if err != nil {
		t.Fatal(err)
	}
	sub := spec.Layer.Sizes
	for i := 0; i < level; i++ {
		lv, err := spec.Level(i, sub)
		if err != nil {
			t.Fatal(err)
		}
		sub = lv.SubTile()
	}
	lv, err := spec.Level(level, sub)
	if err != nil {
		t.Fatal(err)
	}
	return reuse.New(lv, spec.Layer)
}

// loopOf returns the nest index of dimension d's temporal loop.
func loopOf(a *reuse.Analysis, d tensor.Dim) int {
	for i, lp := range a.Loops {
		if !lp.IsFold && lp.Map.Dim == d {
			return i
		}
	}
	return -1
}

// newPerPE is NewData's per-sub-cluster amount.
func newPerPE(a *reuse.Analysis, k tensor.Kind, li int, ch tensor.Sizes) int64 {
	n, _ := a.NewData(k, li, ch, 1)
	return n
}

// TestFig5A: SpatialMap(1,1) X'; TemporalMap(1,1) S — output-stationary:
// outputs are temporally reduced in place while S sweeps, and the filter
// weights are spatially multicast.
func TestFig5A(t *testing.T) {
	a := analysisFor(t, 3, 0,
		dataflow.SMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.S),
	)
	ch := a.SteadyChunks()
	sIdx := loopOf(a, tensor.S)
	if got := newPerPE(a, tensor.Output, sIdx, ch); got != 0 {
		t.Errorf("output moved while S advances: %d (not output-stationary)", got)
	}
	if a.SpatiallyVaries(tensor.Weight) {
		t.Error("weights not spatially multicast")
	}
	if a.OutputReduced() {
		t.Error("outputs are partitioned, not reduced, under X' partitioning")
	}
}

// TestFig5B: TemporalMap(1,1) S outermost, SpatialMap(1,1) X' folding
// inside — weight-stationary: the weight tile survives the X' fold sweep.
func TestFig5B(t *testing.T) {
	a := analysisFor(t, 3, 0,
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.S),
		dataflow.SMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
	)
	ch := a.SteadyChunks()
	// The fold loop sits inside the S loop; advancing the fold keeps the
	// weights (not coupled to X) in place.
	foldIdx := -1
	for i, lp := range a.Loops {
		if lp.IsFold {
			foldIdx = i
		}
	}
	if foldIdx < 0 {
		t.Fatal("no fold loop: X' should fold on 3 PEs")
	}
	if got := newPerPE(a, tensor.Weight, foldIdx, ch); got != 0 {
		t.Errorf("weights refetched across X' folds: %d (not weight-stationary)", got)
	}
	// Advancing S refetches the single weight element.
	if got := newPerPE(a, tensor.Weight, loopOf(a, tensor.S), ch); got != 1 {
		t.Errorf("S advance fetched %d weights; want 1", got)
	}
}

// TestFig5D: SpatialMap(1,1) S; TemporalMap(1,1) X' — collaborative
// weight-stationary: PEs hold distinct filter taps and spatially reduce
// every output.
func TestFig5D(t *testing.T) {
	a := analysisFor(t, 3, 0,
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.S),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
	)
	if !a.OutputReduced() {
		t.Error("S partitioning must spatially reduce outputs")
	}
	if !a.SpatiallyVaries(tensor.Weight) {
		t.Error("weights must be partitioned across PEs")
	}
	// Weight stays put while X' sweeps.
	ch := a.SteadyChunks()
	if got := newPerPE(a, tensor.Weight, loopOf(a, tensor.X), ch); got != 0 {
		t.Errorf("weights refetched per output: %d", got)
	}
}

// TestFig5E: SpatialMap(2,2) S; TemporalMap(1,1) X' — the tiled variant
// adds partial temporal reuse of inputs across X' steps (the
// convolutional halo the paper highlights).
func TestFig5E(t *testing.T) {
	a := analysisFor(t, 3, 0,
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.S),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
	)
	ch := a.SteadyChunks()
	xIdx := loopOf(a, tensor.X)
	tile := a.TileOf(tensor.Input, ch)
	nd := newPerPE(a, tensor.Input, xIdx, ch)
	if nd <= 0 || nd >= tile {
		t.Errorf("input new-per-step = %d of tile %d; want partial temporal reuse", nd, tile)
	}
}

// TestFig5F: the clustered variant — X' across two clusters of three,
// S partitioned within each cluster; the inner level reduces outputs.
func TestFig5F(t *testing.T) {
	outer := analysisFor(t, 6, 0,
		dataflow.TMap(dataflow.Lit(3), dataflow.Lit(3), tensor.S),
		dataflow.SMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.ClusterOf(dataflow.Lit(3)),
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.S),
	)
	if outer.OutputReduced() {
		t.Error("outer level partitions outputs across clusters")
	}
	inner := analysisFor(t, 6, 1,
		dataflow.TMap(dataflow.Lit(3), dataflow.Lit(3), tensor.S),
		dataflow.SMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.ClusterOf(dataflow.Lit(3)),
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.S),
	)
	if !inner.OutputReduced() {
		t.Error("inner level must spatially reduce outputs across the cluster")
	}
}
