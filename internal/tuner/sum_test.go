package tuner

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// oneShot analyzes every layer of m under every dataflow of dfs with the
// one-shot engine, bypassing the profile cache: res[i][j] is layer i
// under dfs[j], nil where the dataflow cannot map the layer.
func oneShot(m models.Model, dfs []dataflow.Dataflow, cfg hw.Config) [][]*core.Result {
	res := make([][]*core.Result, len(m.Layers))
	for i, li := range m.Layers {
		res[i] = make([]*core.Result, len(dfs))
		for j, df := range dfs {
			if r, err := core.AnalyzeDataflow(df, li.Layer, cfg); err == nil {
				res[i][j] = r
			}
		}
	}
	return res
}

// plainSum is the roll-up written out: pick[i] indexes res[i], or is
// negative for an unmapped layer.
func plainSum(m models.Model, res [][]*core.Result, pick []int) Totals {
	var want Totals
	for i, li := range m.Layers {
		if pick[i] < 0 {
			want.Unmapped++
			continue
		}
		r := res[i][pick[i]]
		rt := r.Runtime * int64(li.Count)
		e := r.EnergyDefault().OnChip() * float64(li.Count)
		want.Runtime += rt
		want.EnergyPJ += e
		want.ByClass[li.Class].Runtime += rt
		want.ByClass[li.Class].EnergyPJ += e
	}
	return want
}

// sameTotals compares the sums bit for bit and each mapped layer's
// Result with the one-shot engine's.
func sameTotals(t *testing.T, what string, m models.Model, got, want Totals, res [][]*core.Result, pick []int) {
	t.Helper()
	bits := func(s Sums) [2]uint64 { return [2]uint64{uint64(s.Runtime), math.Float64bits(s.EnergyPJ)} }
	if bits(got.Sums) != bits(want.Sums) || got.Unmapped != want.Unmapped {
		t.Errorf("%s: runtime %d energy %v unmapped %d, want %d %v %d",
			what, got.Runtime, got.EnergyPJ, got.Unmapped, want.Runtime, want.EnergyPJ, want.Unmapped)
	}
	for c := range got.ByClass {
		if bits(got.ByClass[c]) != bits(want.ByClass[c]) {
			t.Errorf("%s: class %v sums %+v, want %+v", what, models.Class(c), got.ByClass[c], want.ByClass[c])
		}
	}
	if len(got.Choices) != len(m.Layers) {
		t.Fatalf("%s: %d choices for %d layers", what, len(got.Choices), len(m.Layers))
	}
	for i, ch := range got.Choices {
		if pick[i] < 0 {
			if ch.Result != nil {
				t.Errorf("%s: unmapped layer %s has a result", what, m.Layers[i].Layer.Name)
			}
			continue
		}
		if !reflect.DeepEqual(ch.Result, res[i][pick[i]]) {
			t.Errorf("%s: layer %s priced through the cache differs from the one-shot engine",
				what, m.Layers[i].Layer.Name)
		}
	}
}

// TestSumMatchesOneShotLoop is the roll-up's oracle. For every zoo model
// on Accel256, Sum over Fixed equals a plain loop over one-shot
// core.AnalyzeDataflow for each Table 3 dataflow, and Sum over Best
// equals a brute-force minimum over the five, the first candidate
// winning ties, for each objective. The five listed twice tie every
// layer, and must choose as the five do.
func TestSumMatchesOneShotLoop(t *testing.T) {
	cfg := hw.Accel256()
	dfs := dataflows.All()
	twice := append(dataflows.All(), dfs...)
	metric := map[Objective]func(*core.Result) float64{
		MinRuntime: func(r *core.Result) float64 { return float64(r.Runtime) },
		MinEnergy:  func(r *core.Result) float64 { return r.EnergyDefault().OnChip() },
		MinEDP:     func(r *core.Result) float64 { return r.EnergyDefault().OnChip() * float64(r.Runtime) },
	}
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		res := oneShot(m, dfs, cfg)
		pick := make([]int, len(m.Layers))
		for j, df := range dfs {
			for i := range pick {
				pick[i] = j
				if res[i][j] == nil {
					pick[i] = -1
				}
			}
			got := Sum(m, Fixed(df, cfg))
			sameTotals(t, name+" "+df.Name, m, got, plainSum(m, res, pick), res, pick)
		}
		for obj, f := range metric {
			for i := range pick {
				pick[i] = -1
				for j, r := range res[i] {
					if r != nil && (pick[i] < 0 || f(r) < f(res[i][pick[i]])) {
						pick[i] = j
					}
				}
			}
			for _, cands := range [][]dataflow.Dataflow{dfs, twice} {
				got := Sum(m, Best(cands, cfg, obj))
				what := fmt.Sprintf("%s best %s of %d", name, obj, len(cands))
				sameTotals(t, what, m, got, plainSum(m, res, pick), res, pick)
				for i, ch := range got.Choices {
					if pick[i] >= 0 && ch.Index != pick[i] {
						t.Errorf("%s: layer %s chose %d (%s), brute force %d (%s)", what,
							m.Layers[i].Layer.Name, ch.Index, ch.Dataflow.Name, pick[i], dfs[pick[i]].Name)
					}
				}
			}
		}
	}
}

// TestSumFilesByLayerClass: a layer's sums land under its LayerInst
// class. ResNeXt50's grouped 3x3 convolutions are AggResidual by
// construction, though Classify files them elsewhere.
func TestSumFilesByLayerClass(t *testing.T) {
	m := models.ResNeXt50()
	tot := Sum(m, Best(dataflows.All(), hw.Accel256(), MinRuntime))
	var want Sums
	grouped := 0
	for i, li := range m.Layers {
		if li.Class != models.AggResidual {
			continue
		}
		grouped++
		if models.Classify(li.Layer) == models.AggResidual {
			t.Errorf("layer %s: Classify agrees with its class, so this test checks nothing", li.Layer.Name)
		}
		want.add(Sums{
			Runtime:  tot.Choices[i].Result.Runtime * int64(li.Count),
			EnergyPJ: tot.Choices[i].Result.EnergyDefault().OnChip() * float64(li.Count),
		})
	}
	if grouped == 0 || want.Runtime == 0 {
		t.Fatal("ResNeXt50 has no AggResidual layer")
	}
	if tot.ByClass[models.AggResidual] != want {
		t.Errorf("AggResidual sums %+v, want %+v", tot.ByClass[models.AggResidual], want)
	}
}

// TestSumUnmappedLayer: a layer no candidate maps counts once in
// Unmapped and in no sum. (A loop that added a -1 runtime for it would
// subtract its count.)
func TestSumUnmappedLayer(t *testing.T) {
	vgg := models.VGG16()
	bad := vgg.Layers[1]
	bad.Layer.Density[tensor.Weight] = 2 // outside [0, 1]: no dataflow maps it
	bad.Count = 3
	m := models.Model{Name: "mixed", Layers: []models.LayerInst{vgg.Layers[0], bad, vgg.Layers[2]}}
	ok := models.Model{Name: "ok", Layers: []models.LayerInst{vgg.Layers[0], vgg.Layers[2]}}
	cfg := hw.Accel256()
	for _, choose := range []Chooser{Best(dataflows.All(), cfg, MinRuntime), Fixed(dataflows.Get("KC-P"), cfg)} {
		got, want := Sum(m, choose), Sum(ok, choose)
		if got.Unmapped != 1 || got.Choices[1].Result != nil {
			t.Errorf("unmapped %d, bad layer's result %v; want 1 and nil", got.Unmapped, got.Choices[1].Result)
		}
		if got.Sums != want.Sums || got.ByClass != want.ByClass {
			t.Errorf("sums with the unmapped layer %+v, without it %+v", got.Sums, want.Sums)
		}
	}
}
