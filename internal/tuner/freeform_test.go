package tuner

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/tensor"
)

func freeFormLayer() tensor.Layer {
	return tensor.Layer{
		Name: "map", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 16, tensor.C: 16, tensor.Y: 16, tensor.X: 16, tensor.R: 3, tensor.S: 3},
	}.Normalize()
}

func freeFormCfg(pes int) hw.Config {
	m := noc.Bus(16)
	m.Reduction = true
	return hw.Config{Name: "map", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize()
}

// runFreeForm runs a whole search and returns the searcher for its
// counts.
func runFreeForm(t *testing.T, l tensor.Layer, cfg hw.Config, opt Options) (Choice, searcher) {
	t.Helper()
	s := newSearcher(context.Background(), l, cfg, opt)
	s.tune()
	ch, err := s.result()
	if err != nil {
		t.Fatal(err)
	}
	return ch, s
}

func TestCandidateLowering(t *testing.T) {
	layer := freeFormLayer()
	c := candidate{
		order:   [tensor.NumDims]tensor.Dim{tensor.K, tensor.C, tensor.Y, tensor.X, tensor.R, tensor.S, tensor.N},
		spatial: tensor.K,
		tiles:   fullTiles(layer).Set(tensor.K, 1).Set(tensor.Y, 2),
	}
	df := c.dataflow()
	if df.Name != "KCYXRSN tiles=N1 K1 C16 Y2 X14 R3 S3 spatial=K" {
		t.Errorf("name %q", df.Name)
	}
	if len(df.Directives) != int(tensor.NumDims) {
		t.Fatalf("directives = %d", len(df.Directives))
	}
	// Y tile of 2 output rows lowers to size Sz(R)+1, offset 2.
	var yDir *struct{ size, offset int }
	for _, d := range df.Directives {
		if !d.IsCluster && d.Dim == tensor.Y {
			yDir = &struct{ size, offset int }{
				d.Size.Eval(layer.Sizes), d.Offset.Eval(layer.Sizes)}
		}
	}
	if yDir == nil || yDir.size != 4 || yDir.offset != 2 {
		t.Fatalf("Y directive = %+v; want size 4 offset 2", yDir)
	}
	r, err := core.AnalyzeDataflow(df, layer, freeFormCfg(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFreeFormStrategies: every strategy stays within its budget and
// never returns worse than the template pick.
func TestFreeFormStrategies(t *testing.T) {
	layer, cfg := freeFormLayer(), freeFormCfg(32)
	tmpl, err := TuneLayer(layer, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Strategy{Exhaustive, RandomSample, HillClimb} {
		best, s := runFreeForm(t, layer, cfg, Options{Strategy: st, Budget: 300, Seed: 11})
		if s.evaluated == 0 || s.evaluated > 300 {
			t.Errorf("%v: evaluated %d", st, s.evaluated)
		}
		if err := best.Result.CheckConservation(); err != nil {
			t.Errorf("%v: %v", st, err)
		}
		if best.Score > tmpl.Score {
			t.Errorf("%v: score %v worse than the template pick's %v", st, best.Score, tmpl.Score)
		}
	}
}

// TestFreeFormCompetitive: hill climbing with a modest budget finds a
// free-form mapping faster than the best template.
func TestFreeFormCompetitive(t *testing.T) {
	layer, cfg := freeFormLayer(), freeFormCfg(32)
	tmpl, err := TuneLayer(layer, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	templates := len(candidates(layer, cfg.NumPEs))
	best, _ := runFreeForm(t, layer, cfg, Options{Strategy: HillClimb, Budget: 800, Seed: 3})
	if best.Index < templates || best.Result.Runtime >= tmpl.Result.Runtime {
		t.Errorf("hill climb picked candidate %d (%s, %d cycles); want a free-form candidate faster than the template pick %s (%d cycles)",
			best.Index, best.Dataflow.Name, best.Result.Runtime, tmpl.Dataflow.Name, tmpl.Result.Runtime)
	}
}

// TestFreeFormDeterministic: the stochastic strategies reproduce with
// the same seed.
func TestFreeFormDeterministic(t *testing.T) {
	layer, cfg := freeFormLayer(), freeFormCfg(32)
	opt := Options{Strategy: RandomSample, Budget: 120, Seed: 5}
	a, _ := runFreeForm(t, layer, cfg, opt)
	b, _ := runFreeForm(t, layer, cfg, opt)
	if a.Score != b.Score || a.Dataflow.Name != b.Dataflow.Name {
		t.Errorf("non-deterministic search: %s vs %s", a.Dataflow.Name, b.Dataflow.Name)
	}
}

// TestFreeFormBudget: Budget caps the candidates the resolver accepts;
// the ones it refuses (16-PE clusters on 8 PEs) use up none of it.
func TestFreeFormBudget(t *testing.T) {
	_, s := runFreeForm(t, freeFormLayer(), freeFormCfg(32), Options{Strategy: Exhaustive, Budget: 25})
	if s.evaluated != 25 {
		t.Errorf("exhaustive evaluated %d, want the budget of 25", s.evaluated)
	}
	_, s = runFreeForm(t, freeFormLayer(), freeFormCfg(8), Options{Strategy: RandomSample, Budget: 100, Seed: 1})
	if s.evaluated != 100 || s.invalid == 0 {
		t.Errorf("random on 8 PEs: evaluated %d, invalid %d; want 100 and some refused", s.evaluated, s.invalid)
	}
}

// TestFreeFormObjectives: the energy objective finds no more energy
// than the runtime objective over the same candidates.
func TestFreeFormObjectives(t *testing.T) {
	layer, cfg := freeFormLayer(), freeFormCfg(32)
	e, _ := runFreeForm(t, layer, cfg, Options{Objective: MinEnergy, Strategy: Exhaustive, Budget: 400})
	rt, _ := runFreeForm(t, layer, cfg, Options{Objective: MinRuntime, Strategy: Exhaustive, Budget: 400})
	if e.Result.EnergyDefault().OnChip() > rt.Result.EnergyDefault().OnChip() {
		t.Error("energy objective found worse energy than runtime objective")
	}
}

// TestFreeFormMaxL2: the L2 cap filters free-form candidates as it
// does templates.
func TestFreeFormMaxL2(t *testing.T) {
	layer, cfg := freeFormLayer(), freeFormCfg(32)
	free, _ := runFreeForm(t, layer, cfg, Options{Strategy: HillClimb, Budget: 300, Seed: 2})
	limit := free.Result.L2ReqBytes() - 1
	capped, _ := runFreeForm(t, layer, cfg, Options{Strategy: HillClimb, Budget: 300, Seed: 2, MaxL2Bytes: limit})
	if capped.Result.L2ReqBytes() > limit {
		t.Errorf("pick stages %d B in L2 over the %d B cap", capped.Result.L2ReqBytes(), limit)
	}
}
