// Package tuner chooses a mapping for each layer of a model and rolls
// the model up. Its auto-tuner is the one the paper names as future work
// (Section 7): given a layer and a hardware configuration, it searches
// across the dataflow styles of Table 3 *and* their tile-size knobs, and
// returns the mapping that minimizes runtime, energy, or energy-delay
// product; with a budget it goes on to search free-form mappings (loop
// orders, tiles, spatial dims, cluster splits; freeform.go) from the
// template winner. The same candidate loop picks among fixed mappings
// only, the adaptive dataflow of Section 5.1 (Best), and Sum rolls any
// Chooser up over a model's layers.
package tuner

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
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

// Choice is one chosen mapping.
type Choice struct {
	Dataflow dataflow.Dataflow
	Result   *core.Result
	// Score is the searched objective's value; Fixed leaves it zero.
	Score float64
	// Index is the winner's position in the candidate list searched:
	// the templates, then the free-form candidates in the order offered.
	Index int
}

// Options configures the search.
type Options struct {
	Objective Objective
	// MaxL2Bytes, when positive, drops candidates whose L2 staging
	// requirement exceeds it. The graph-level fusion scheduler uses this
	// to reserve scratchpad for inter-layer band windows.
	MaxL2Bytes int64
	// Budget, when positive, follows the template scan with a free-form
	// search of Strategy, seeded by Seed, that evaluates up to Budget
	// candidates; the template winner stays the pick unless a free-form
	// candidate scores strictly lower.
	Budget   int
	Strategy Strategy
	Seed     int64
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

// TuneLayer returns the best mapping for one layer: the best of the
// template candidates, then, with a positive opt.Budget, of the
// free-form search after them. Candidates that cannot map the layer are
// skipped; an error is returned only if none can.
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
	defer span.End()
	s := newSearcher(ctx, layer, cfg, opt)
	s.tune()
	span.SetAttr(obs.Int("evaluated", s.scored))
	if opt.Budget > 0 {
		span.SetAttr(obs.String("strategy", opt.Strategy.String()),
			obs.Int("free_form_evaluated", s.evaluated), obs.Int("invalid", s.invalid))
	}
	best, err := s.result()
	if err == nil {
		span.SetAttr(obs.String("best", best.Dataflow.Name))
	}
	return best, err
}

// tune runs the template scan and, with a positive opt.Budget, the
// free-form search. The profile cache persists across layers and
// hardware variants: re-tuning the same layer under a different NoC or
// vector width re-prices cached profiles instead of re-running the walk.
func (s *searcher) tune() {
	for _, df := range candidates(s.layer, s.cfg.NumPEs) {
		s.consider(df)
	}
	if s.opt.Budget > 0 {
		s.freeForm()
	}
}

// searcher is one search: the candidates offered so far and the best of
// them, plus the free-form phase's state.
type searcher struct {
	ctx   context.Context
	layer tensor.Layer // as given: the profile cache keys on it
	norm  tensor.Layer // normalized, for the MAC check and the free-form space
	cfg   hw.Config
	opt   Options

	best   Choice
	next   int // the next candidate's position
	scored int // candidates that passed every filter

	// The free-form phase (freeform.go).
	rng         *rand.Rand
	tileChoices [tensor.NumDims][]int
	evaluated   int // candidates the resolver accepted: what Budget caps
	invalid     int // candidates the resolver, the engine or a filter rejected
}

func newSearcher(ctx context.Context, layer tensor.Layer, cfg hw.Config, opt Options) searcher {
	return searcher{ctx: ctx, layer: layer, norm: layer.Normalize(), cfg: cfg, opt: opt}
}

// consider is the one pricing and scoring path of every search. It
// prices df through the shared profile cache and rejects it when the
// resolver or the engine refuses it, when its MACs differ from the
// layer's (overlapping output responsibility), or when it stages more
// than opt.MaxL2Bytes; otherwise it scores df and keeps it if it scores
// strictly below the best so far, so the earliest candidate wins ties.
// resolved reports whether the resolver accepted df.
func (s *searcher) consider(df dataflow.Dataflow) (sc float64, resolved, ok bool) {
	i := s.next
	s.next++
	r, err := core.AnalyzeDataflowCachedCtx(s.ctx, df, s.layer, s.cfg)
	if err != nil {
		// The cache returns a ResolveError unwrapped; asserting on it
		// directly keeps this path allocation-free, unlike errors.As.
		_, unresolved := err.(*core.ResolveError)
		return 0, !unresolved, false
	}
	if r.MACs != s.norm.MACs() || s.opt.MaxL2Bytes > 0 && r.L2ReqBytes() > s.opt.MaxL2Bytes {
		return 0, true, false
	}
	s.scored++
	sc = score(s.opt.Objective, r)
	if s.best.Result == nil || sc < s.best.Score {
		s.best = Choice{Dataflow: df, Result: r, Score: sc, Index: i}
	}
	return sc, true, true
}

// result is the search's pick, or an error when no candidate passed.
func (s *searcher) result() (Choice, error) {
	if s.best.Result == nil {
		return Choice{}, fmt.Errorf("tuner: no candidate dataflow maps layer %s", s.layer.Name)
	}
	return s.best, nil
}

// Chooser picks the mapping of one layer. An error means it cannot map
// the layer.
type Chooser func(tensor.Layer) (Choice, error)

// Fixed chooses df for every layer, priced through the shared profile
// cache. A layer df cannot map fails with the engine's own error.
func Fixed(df dataflow.Dataflow, cfg hw.Config) Chooser {
	return func(l tensor.Layer) (Choice, error) {
		r, err := core.AnalyzeDataflowCached(df, l, cfg)
		if err != nil {
			return Choice{}, err
		}
		return Choice{Dataflow: df, Result: r}, nil
	}
}

// Best chooses, per layer, the candidate of dfs with the lowest obj
// score: the adaptive dataflow of Section 5.1 when dfs is Table 3's
// five styles. Candidates that cannot map a layer are skipped, and the
// earliest candidate wins ties; Choice.Index is the winner's position
// in dfs.
func Best(dfs []dataflow.Dataflow, cfg hw.Config, obj Objective) Chooser {
	return func(l tensor.Layer) (Choice, error) {
		s := newSearcher(context.Background(), l, cfg, Options{Objective: obj})
		for _, df := range dfs {
			s.consider(df)
		}
		return s.result()
	}
}

// Tuned chooses each layer's mapping with TuneLayer.
func Tuned(cfg hw.Config, opt Options) Chooser {
	return func(l tensor.Layer) (Choice, error) { return TuneLayer(l, cfg, opt) }
}

// Sums is runtime and on-chip energy summed over layer instances.
type Sums struct {
	Runtime  int64   // Σ Result.Runtime × Count, cycles
	EnergyPJ float64 // Σ on-chip energy × Count, pJ
}

func (s *Sums) add(o Sums) {
	s.Runtime += o.Runtime
	s.EnergyPJ += o.EnergyPJ
}

// Totals is a model rolled up under one chooser.
type Totals struct {
	Sums
	// ByClass splits Sums by each layer's LayerInst.Class.
	ByClass [models.NumClasses]Sums
	// Choices holds one choice per layer, in model order. An unmapped
	// layer's choice has a nil Result.
	Choices []Choice
	// Unmapped counts the layers the chooser could not map; they are
	// left out of every sum.
	Unmapped int
}

// Sum chooses a mapping for every layer of m and sums runtime and
// on-chip energy, each weighted by the layer's instance count.
func Sum(m models.Model, choose Chooser) Totals {
	t := Totals{Choices: make([]Choice, len(m.Layers))}
	for i, li := range m.Layers {
		ch, err := choose(li.Layer)
		if err != nil {
			t.Unmapped++
			continue
		}
		t.Choices[i] = ch
		s := Sums{
			Runtime:  ch.Result.Runtime * int64(li.Count),
			EnergyPJ: ch.Result.EnergyDefault().OnChip() * float64(li.Count),
		}
		t.add(s)
		t.ByClass[li.Class].add(s)
	}
	return t
}
