package core

import (
	"context"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Analyze runs the full performance and cost analysis of a resolved
// dataflow on a hardware configuration and returns the report: the
// configuration is checked, then Profile's cluster walk is priced under
// it by a batch-of-one Price. Cached paths run the same two phases, so
// a one-shot answer and a cached one cannot differ.
func Analyze(spec *dataflow.Spec, cfg hw.Config) (*Result, error) {
	return analyzeCtx(context.Background(), spec, cfg)
}

// AnalyzeDataflow resolves and analyzes in one call.
func AnalyzeDataflow(df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	return AnalyzeDataflowCtx(context.Background(), df, layer, cfg)
}

// AnalyzeDataflowCtx is AnalyzeDataflow with both phases traced under
// ctx's obs recorder: the walk in a "core.profile" span and the pricing
// in a "core.price" span, as on every cached path.
func AnalyzeDataflowCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	cfg = cfg.Normalize()
	spec, err := dataflow.Resolve(df, layer, cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	return analyzeCtx(ctx, spec, cfg)
}

// analyzeCtx is Analyze with both phases traced under ctx.
func analyzeCtx(ctx context.Context, spec *dataflow.Spec, cfg hw.Config) (*Result, error) {
	cfg = cfg.Normalize()
	if err := checkConfig(spec, cfg); err != nil {
		return nil, err
	}
	p, err := ProfileCtx(ctx, spec)
	if err != nil {
		return nil, err
	}
	return p.PriceCtx(ctx, cfg)
}
