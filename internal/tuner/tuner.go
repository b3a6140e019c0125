// Package tuner implements the dataflow auto-tuner the paper names as
// future work (Section 7): given a layer and a hardware configuration,
// it searches across the dataflow styles of Table 3 *and* their tile-size
// knobs, and returns the mapping that minimizes runtime, energy, or
// energy-delay product. Combined across layers this subsumes the
// adaptive-dataflow study of Section 5.1 (which picks among fixed
// mappings only).
package tuner

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Objective selects the metric the tuner minimizes.
type Objective uint8

// Objectives.
const (
	MinRuntime Objective = iota
	MinEnergy
	MinEDP
)

// String returns the objective name.
func (o Objective) String() string {
	switch o {
	case MinRuntime:
		return "runtime"
	case MinEnergy:
		return "energy"
	case MinEDP:
		return "edp"
	}
	return fmt.Sprintf("Objective(%d)", uint8(o))
}

// Choice is one tuned mapping.
type Choice struct {
	Dataflow dataflow.Dataflow
	Result   *core.Result
	Score    float64
}

// Options configures the search.
type Options struct {
	Objective Objective
	// MaxCandidates bounds the mappings evaluated per layer (0 = all).
	MaxCandidates int
	// MaxL2Bytes, when positive, drops candidates whose L2 staging
	// requirement exceeds it. The graph-level fusion scheduler uses this
	// to reserve scratchpad for inter-layer band windows.
	MaxL2Bytes int64
}

// score evaluates the objective on a result.
func score(o Objective, r *core.Result) float64 {
	switch o {
	case MinEnergy:
		return r.EnergyDefault().OnChip()
	case MinEDP:
		return r.EnergyDefault().OnChip() * float64(r.Runtime)
	default:
		return float64(r.Runtime)
	}
}

// candidates generates the mapping search space for a layer: the five
// Table 3 styles plus tile-size variants of the parameterized templates,
// scaled to the layer's dimensions and the PE count. The Table 3 styles
// are the dataflows package's shared values, parsed once.
func candidates(layer tensor.Layer, numPEs int) []dataflow.Dataflow {
	out := dataflows.All()
	c := layer.Sizes.Get(tensor.C)
	k := layer.Sizes.Get(tensor.K)
	for _, cluster := range pow2Upto(min(numPEs, 128)) {
		if cluster < 2 || numPEs%cluster != 0 {
			continue
		}
		for _, ct := range pow2Upto(c) {
			if ct < cluster {
				continue
			}
			df := dataflows.KCPSized(ct, cluster)
			df.Name = fmt.Sprintf("KC-P(c%d,x%d)", ct, cluster)
			out = append(out, df)
		}
	}
	for _, ct := range pow2Upto(min(c, 32)) {
		for _, kt := range pow2Upto(min(k, 32)) {
			df := dataflows.YRPSized(ct, kt)
			df.Name = fmt.Sprintf("YR-P(c%d,k%d)", ct, kt)
			out = append(out, df)
		}
	}
	for _, xt := range []int{2, 4, 8, 16, 32} {
		if xt > layer.OutX() {
			break
		}
		df := dataflows.YXPSized(xt)
		df.Name = fmt.Sprintf("YX-P(x%d)", xt)
		out = append(out, df)
	}
	return out
}

// pow2Upto returns the powers of two up to n inclusive.
func pow2Upto(n int) []int {
	var out []int
	for v := 1; v <= n; v *= 2 {
		out = append(out, v)
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TuneLayer returns the best mapping of the candidate space for one
// layer. Candidates that cannot map the layer are skipped; an error is
// returned only if none can.
func TuneLayer(layer tensor.Layer, cfg hw.Config, opt Options) (Choice, error) {
	return TuneLayerCtx(context.Background(), layer, cfg, opt)
}

// TuneLayerCtx is TuneLayer traced under ctx's obs recorder: the whole
// search runs in a "tuner.layer" span, with each candidate's profile
// fetch and pricing visible as child spans (profiles that ride the
// shared cache appear as hit events instead of walks).
func TuneLayerCtx(ctx context.Context, layer tensor.Layer, cfg hw.Config, opt Options) (Choice, error) {
	cfg = cfg.Normalize()
	ctx, span := obs.Start(ctx, "tuner.layer",
		obs.String("layer", layer.Name),
		obs.String("objective", opt.Objective.String()),
		obs.Int("pes", cfg.NumPEs))
	var best Choice
	found := false
	evaluated := 0
	for _, df := range candidates(layer, cfg.NumPEs) {
		if opt.MaxCandidates > 0 && evaluated >= opt.MaxCandidates {
			break
		}
		// The profile cache persists across layers and hardware variants:
		// re-tuning the same layer under a different NoC or vector width
		// re-prices cached profiles instead of re-running the walk.
		r, err := core.AnalyzeDataflowCachedCtx(ctx, df, layer, cfg)
		if err != nil {
			continue
		}
		if opt.MaxL2Bytes > 0 && r.L2ReqBytes() > opt.MaxL2Bytes {
			continue
		}
		evaluated++
		s := score(opt.Objective, r)
		if !found || s < best.Score {
			best = Choice{Dataflow: df, Result: r, Score: s}
			found = true
		}
	}
	span.SetAttr(obs.Int("evaluated", evaluated))
	if !found {
		span.End()
		return Choice{}, fmt.Errorf("tuner: no candidate dataflow maps layer %s", layer.Name)
	}
	span.SetAttr(obs.String("best", best.Dataflow.Name))
	span.End()
	return best, nil
}

// TuneLayerConfigs tunes one layer under several hardware variants at
// once, returning the best mapping per configuration (choices[i] pairs
// with cfgs[i]).
func TuneLayerConfigs(layer tensor.Layer, cfgs []hw.Config, opt Options) ([]Choice, error) {
	return TuneLayerConfigsCtx(context.Background(), layer, cfgs, opt)
}

// TuneLayerConfigsCtx is the hardware-sweep form of TuneLayerCtx: every
// candidate dataflow is profiled once per PE count and priced across
// all configurations sharing that PE count in a single PriceBatch walk,
// so an N-variant sweep costs one cluster walk plus N cheap pricings
// per candidate instead of N full analyses. An error is returned only
// if some configuration has no candidate that maps the layer.
func TuneLayerConfigsCtx(ctx context.Context, layer tensor.Layer, cfgs []hw.Config, opt Options) ([]Choice, error) {
	ctx, span := obs.Start(ctx, "tuner.layer_configs",
		obs.String("layer", layer.Name),
		obs.String("objective", opt.Objective.String()),
		obs.Int("configs", len(cfgs)))
	defer span.End()

	choices := make([]Choice, len(cfgs))
	found := make([]bool, len(cfgs))
	// Candidates and profiles depend on the PE count only, so configs
	// sharing one batch together per candidate.
	byPEs := map[int][]int{}
	norm := make([]hw.Config, len(cfgs))
	for i, cfg := range cfgs {
		norm[i] = cfg.Normalize()
		byPEs[norm[i].NumPEs] = append(byPEs[norm[i].NumPEs], i)
	}
	evaluated := 0
	for pes, lanes := range byPEs {
		batch := make([]hw.Config, len(lanes))
		for j, i := range lanes {
			batch[j] = norm[i]
		}
		priced := 0
		for _, df := range candidates(layer, pes) {
			if opt.MaxCandidates > 0 && priced >= opt.MaxCandidates {
				break
			}
			rs, err := core.AnalyzeDataflowCachedBatchCtx(ctx, df, layer, batch)
			if err != nil && rs == nil { // candidate cannot map the layer
				continue
			}
			priced++
			evaluated++
			for j, i := range lanes {
				if rs[j] == nil {
					continue
				}
				if opt.MaxL2Bytes > 0 && rs[j].L2ReqBytes() > opt.MaxL2Bytes {
					continue
				}
				s := score(opt.Objective, rs[j])
				if !found[i] || s < choices[i].Score {
					choices[i] = Choice{Dataflow: df, Result: rs[j], Score: s}
					found[i] = true
				}
			}
		}
	}
	span.SetAttr(obs.Int("evaluated", evaluated))
	for i, ok := range found {
		if !ok {
			return nil, fmt.Errorf("tuner: no candidate dataflow maps layer %s for config %d (%q)",
				layer.Name, i, cfgs[i].Name)
		}
	}
	return choices, nil
}

// ModelResult summarizes a tuned model.
type ModelResult struct {
	Choices []Choice
	// Runtime and EnergyPJ are totals across the tuned layers (weighted
	// by each layer's repetition count where the caller supplies one).
	Runtime  int64
	EnergyPJ float64
}

// TuneLayers tunes a list of (layer, count) pairs and accumulates totals.
func TuneLayers(layers []tensor.Layer, counts []int, cfg hw.Config, opt Options) (ModelResult, error) {
	return TuneLayersCtx(context.Background(), layers, counts, cfg, opt)
}

// TuneLayersCtx is TuneLayers with per-layer tracing under ctx.
func TuneLayersCtx(ctx context.Context, layers []tensor.Layer, counts []int, cfg hw.Config, opt Options) (ModelResult, error) {
	var mr ModelResult
	for i, l := range layers {
		ch, err := TuneLayerCtx(ctx, l, cfg, opt)
		if err != nil {
			return mr, err
		}
		n := 1
		if counts != nil {
			n = counts[i]
		}
		mr.Choices = append(mr.Choices, ch)
		mr.Runtime += ch.Result.Runtime * int64(n)
		mr.EnergyPJ += ch.Result.EnergyDefault().OnChip() * float64(n)
	}
	return mr, nil
}
