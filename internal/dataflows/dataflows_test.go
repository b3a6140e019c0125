package dataflows

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

func TestTable3Parse(t *testing.T) {
	for _, name := range Names {
		df := Get(name)
		if len(df.Directives) == 0 {
			t.Errorf("%s: empty dataflow", name)
		}
	}
	if len(All()) != 5 {
		t.Fatal("expected five dataflows")
	}
}

// TestParseAllocs bounds the allocations of parsing one Table 3
// dataflow. The service parses the named dataflow on every analyze
// request and batch item, so the lexer must not allocate per token (a
// per-token lookup map once cost ~300 allocations per parse).
func TestParseAllocs(t *testing.T) {
	src := Sources["KC-P"]
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dataflow.ParseDataflow("KC-P", src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("parsing KC-P allocates %.0f times; want <= 20", allocs)
	}
}

// TestTable3Structure spot-checks the partitioning strategy column of
// Table 3: which dimensions each dataflow parallelizes.
func TestTable3Structure(t *testing.T) {
	wantSpatial := map[string][]tensor.Dim{
		"C-P":  {tensor.C},
		"X-P":  {tensor.X},
		"YX-P": {tensor.Y, tensor.X},
		"YR-P": {tensor.Y, tensor.Y, tensor.R}, // Y at top, Y+R in cluster
		"KC-P": {tensor.K, tensor.C},
	}
	for name, want := range wantSpatial {
		df := Get(name)
		var got []tensor.Dim
		for _, d := range df.Directives {
			if !d.IsCluster && d.Kind == 1 /* Spatial */ {
				got = append(got, d.Dim)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: spatial dims %v; want %v", name, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: spatial dims %v; want %v", name, got, want)
				break
			}
		}
	}
}

// TestConservationAcrossZoo runs every Table 3 dataflow over every layer
// of the evaluation models and checks the exactness invariants. This is
// the repository's strongest end-to-end correctness test: any chunking,
// folding, edge-case, or stride bug breaks it.
func TestConservationAcrossZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo sweep in short mode")
	}
	cfg := hw.Accel256()
	for _, m := range models.EvaluationModels() {
		for _, li := range m.Layers {
			for _, name := range Names {
				df := Get(name)
				r, err := core.AnalyzeDataflow(df, li.Layer, cfg)
				if err != nil {
					t.Errorf("%s/%s on %s: %v", m.Name, li.Layer.Name, name, err)
					continue
				}
				if err := r.CheckConservation(); err != nil {
					t.Errorf("%s/%s on %s: %v", m.Name, li.Layer.Name, name, err)
				}
			}
		}
	}
}

// TestCanonicalStationarity pins the informal names of Table 3 to
// measurable behavior on a reference layer.
func TestCanonicalStationarity(t *testing.T) {
	layer := tensor.Layer{
		Name: "ref", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 64, tensor.C: 64, tensor.Y: 30, tensor.X: 30, tensor.R: 3, tensor.S: 3},
	}.Normalize()
	cfg := hw.Accel256()
	results := map[string]*core.Result{}
	for _, name := range Names {
		r, err := core.AnalyzeDataflow(Get(name), layer, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = r
	}
	wsize := layer.TensorSize(tensor.Weight)

	// X-P and KC-P are weight-stationary: with C fully staged (C <= 64),
	// each weight is fetched from L2 exactly once.
	for _, name := range []string{"X-P", "KC-P"} {
		if got := results[name].L2Read(tensor.Weight); got != wsize {
			t.Errorf("%s: L2 weight reads = %d; want %d (weight-stationary)", name, got, wsize)
		}
	}
	// C-P's "no local reuse": with K outer and no activation tiling kept
	// across K iterations, the input tensor is re-fetched from L2 for
	// every output channel.
	isize := layer.TensorSize(tensor.Input)
	if got := results["C-P"].L2Read(tensor.Input); got < 10*isize {
		t.Errorf("C-P L2 input reads = %d; expected many times the %d-element tensor", got, isize)
	}
	// YX-P is output-stationary: outputs leave exactly once and nothing
	// is re-read for accumulation.
	if got, want := results["YX-P"].L2Write(tensor.Output), layer.TensorSize(tensor.Output); got != want {
		t.Errorf("YX-P L2 output writes = %d; want %d", got, want)
	}
	if got := results["YX-P"].L2Read(tensor.Output); got != 0 {
		t.Errorf("YX-P L2 output reads = %d; want 0 (output-stationary)", got)
	}
	// YR-P's input reuse factor beats the channel-parallel flows on this
	// activation-heavy layer (the Figure 11 early-layer ordering).
	if results["YR-P"].ReuseFactor(tensor.Input) <= results["C-P"].ReuseFactor(tensor.Input) {
		t.Errorf("YR-P input reuse %.1f not above C-P %.1f",
			results["YR-P"].ReuseFactor(tensor.Input), results["C-P"].ReuseFactor(tensor.Input))
	}
}

// TestTemplatesMatchBase: the parameterized templates reproduce the
// Table 3 definitions at their canonical knob settings.
func TestTemplatesMatchBase(t *testing.T) {
	layer := tensor.Layer{
		Name: "ref", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 64, tensor.C: 128, tensor.Y: 30, tensor.X: 30, tensor.R: 3, tensor.S: 3},
	}.Normalize()
	cfg := hw.Accel256()
	pairs := []struct {
		base  string
		sized func() (string, *core.Result)
	}{
		{"KC-P", func() (string, *core.Result) {
			r, err := core.AnalyzeDataflow(KCPSized(64, 64), layer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return "KCPSized(64,64)", r
		}},
		{"YR-P", func() (string, *core.Result) {
			r, err := core.AnalyzeDataflow(YRPSized(2, 2), layer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return "YRPSized(2,2)", r
		}},
		{"YX-P", func() (string, *core.Result) {
			r, err := core.AnalyzeDataflow(YXPSized(8), layer, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return "YXPSized(8)", r
		}},
	}
	for _, p := range pairs {
		base, err := core.AnalyzeDataflow(Get(p.base), layer, cfg)
		if err != nil {
			t.Fatal(err)
		}
		name, sized := p.sized()
		if sized.Runtime != base.Runtime || sized.MACs != base.MACs {
			t.Errorf("%s != %s: runtime %d vs %d", name, p.base, sized.Runtime, base.Runtime)
		}
	}
}
