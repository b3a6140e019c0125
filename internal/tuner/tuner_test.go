package tuner

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

func layer(k, c, out, r, stride int) tensor.Layer {
	in := (out-1)*stride + r
	return tensor.Layer{
		Name: "t", Op: tensor.Conv2D,
		Sizes:   tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c, tensor.Y: in, tensor.X: in, tensor.R: r, tensor.S: r},
		StrideY: stride, StrideX: stride,
	}.Normalize()
}

func TestTuneLayerBeatsFixed(t *testing.T) {
	l := layer(64, 64, 28, 3, 1)
	cfg := hw.Accel256()
	best, err := TuneLayer(l, cfg, Options{Objective: MinRuntime})
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Result.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The tuned mapping must be at least as good as every fixed Table 3
	// dataflow (they are in the candidate set).
	for _, df := range dataflows.All() {
		r, err := core.AnalyzeDataflow(df, l, cfg)
		if err != nil {
			continue
		}
		if best.Result.Runtime > r.Runtime {
			t.Errorf("tuned %s (%d cyc) slower than fixed %s (%d cyc)",
				best.Dataflow.Name, best.Result.Runtime, df.Name, r.Runtime)
		}
	}
}

func TestObjectives(t *testing.T) {
	l := layer(32, 32, 28, 3, 1)
	cfg := hw.Accel256()
	rt, err := TuneLayer(l, cfg, Options{Objective: MinRuntime})
	if err != nil {
		t.Fatal(err)
	}
	en, err := TuneLayer(l, cfg, Options{Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	edp, err := TuneLayer(l, cfg, Options{Objective: MinEDP})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Result.Runtime > en.Result.Runtime {
		t.Errorf("runtime objective (%d) lost to energy objective (%d) on runtime",
			rt.Result.Runtime, en.Result.Runtime)
	}
	if en.Result.EnergyDefault().OnChip() > rt.Result.EnergyDefault().OnChip()+1 {
		t.Errorf("energy objective worse than runtime objective on energy")
	}
	if edp.Score > edpOf(rt)+1e-6 || edp.Score > edpOf(en)+1e-6 {
		t.Errorf("EDP objective (%g) worse than another objective's pick (%g, %g)",
			edp.Score, edpOf(rt), edpOf(en))
	}
}

func edpOf(c Choice) float64 {
	return c.Result.EnergyDefault().OnChip() * float64(c.Result.Runtime)
}

// TestTuneLayersTotals rolls tuned layers up with Sum: one choice per
// layer, each the tuner's own pick, and totals weighted by count.
func TestTuneLayersTotals(t *testing.T) {
	vgg := models.VGG16()
	m := models.Model{Name: "vgg3", Layers: vgg.Layers[:3]}
	cfg := hw.Accel256()
	opt := Options{Objective: MinRuntime}
	tot := Sum(m, Tuned(cfg, opt))
	if len(tot.Choices) != 3 || tot.Unmapped != 0 || tot.Runtime <= 0 || tot.EnergyPJ <= 0 {
		t.Fatalf("totals: %+v", tot)
	}
	var rt int64
	for i, li := range m.Layers {
		want, err := TuneLayer(li.Layer, cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := tot.Choices[i]; got.Dataflow.Name != want.Dataflow.Name || got.Score != want.Score {
			t.Errorf("layer %s: Sum chose %s (%g), TuneLayer %s (%g)",
				li.Layer.Name, got.Dataflow.Name, got.Score, want.Dataflow.Name, want.Score)
		}
		rt += want.Result.Runtime * int64(li.Count)
	}
	if tot.Runtime != rt {
		t.Errorf("runtime %d, want %d", tot.Runtime, rt)
	}
}

// TestBestEmptyLeavesUnmapped: a chooser with no candidates maps
// nothing, so every layer is unmapped and every sum stays zero.
func TestBestEmptyLeavesUnmapped(t *testing.T) {
	m := models.MobileNetV2()
	tot := Sum(m, Best(nil, hw.Accel256(), MinRuntime))
	if tot.Unmapped != len(m.Layers) || tot.Sums != (Sums{}) || tot.ByClass != [models.NumClasses]Sums{} {
		t.Errorf("empty candidate list: %d of %d layers unmapped, sums %+v, by class %+v",
			tot.Unmapped, len(m.Layers), tot.Sums, tot.ByClass)
	}
	for i, ch := range tot.Choices {
		if ch.Result != nil {
			t.Errorf("layer %d mapped to %s", i, ch.Dataflow.Name)
		}
	}
}

func TestCandidateNames(t *testing.T) {
	l := layer(64, 64, 28, 3, 1)
	seen := map[string]bool{}
	for _, df := range candidates(l, 256) {
		if seen[df.Name] {
			t.Errorf("duplicate candidate name %q", df.Name)
		}
		seen[df.Name] = true
	}
	for _, want := range []string{"C-P", "KC-P(c64,x16)", "YR-P(c2,k8)", "YX-P(x8)"} {
		if !seen[want] {
			var names []string
			for n := range seen {
				names = append(names, n)
			}
			t.Errorf("candidate %q missing from %s", want, strings.Join(names, ", "))
		}
	}
}
