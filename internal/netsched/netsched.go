// Package netsched schedules a whole network on one accelerator. Beyond
// summing per-layer costs it models the inter-layer data movement the
// paper's Table 4 points at. A schedule is one type, FusedSchedule: the
// layer list cut into groups, each with its claimed DRAM traffic, and
// one roll-up of cycles, traffic and energy. Two schedulers fill it:
//
//   - Run runs every layer as its own group and keeps activations
//     resident in the shared L2 between their producer and their last
//     reader when capacity allows. A residual (skip) source is pinned in
//     L2 until its reader, or pays the "extra global buffer / DRAM
//     accesses to fetch previous activation" the paper lists.
//   - RunFused partitions the activation DAG into fusion groups that
//     stream tile bands through L2, so intermediates never touch DRAM.
//
// Dataflows are chosen per layer: a fixed style, or the auto-tuner.
package netsched

import (
	"fmt"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// Edge is a skip connection: the output of layer From (index into the
// model's layer list) is consumed again by layer To (> From+1).
type Edge struct {
	From, To int
}

// Options configures a schedule.
type Options struct {
	// Dataflow maps each layer to its mapping; nil uses the auto-tuner
	// with the Objective below.
	Dataflow func(tensor.Layer) (dataflow.Dataflow, bool)
	// Objective drives the tuner when Dataflow is nil.
	Objective tuner.Objective
	// L2Bytes is the shared scratchpad capacity available for staging
	// and inter-layer residency. Zero disables residency (every layer
	// round-trips DRAM), reproducing a plain per-layer sum.
	L2Bytes int64
	// Residuals lists skip connections. Run reads each source again at
	// its To layer; RunFused does not consult them.
	Residuals []Edge
}

// Run schedules every layer of the model in order, one singleton group
// per layer, deciding which activations stay resident in L2 between
// their producer and their readers (see residency). BaselineDRAM prices
// the same groups with nothing kept resident.
func Run(m models.Model, cfg hw.Config, opt Options) (*FusedSchedule, error) {
	if err := validateEdges(m, opt.Residuals); err != nil {
		return nil, err
	}
	f, err := newFuser(m, cfg, opt)
	if err != nil {
		return nil, err
	}
	s := &FusedSchedule{Model: m, L2Bytes: opt.L2Bytes}
	spans, baseline := f.residency()
	f.assemble(s, spans, baseline)
	return s, nil
}

// residency runs every layer as its own group, in order, and returns
// the groups with their residency applied and the same groups with
// nothing kept resident. It re-prices each layer's mapping in f.base
// at the L2 left beside the resident outputs, so the fuser serves only
// this schedule afterwards. Readers come from the graph and the
// residual edges:
//
//   - a layer's output stays resident when it fits beside the staging
//     tiles and every output already resident, and something later
//     reads it; it stays until its last reader has run, so the model's
//     final output is always written;
//   - a layer reads its input from L2, and not from DRAM, only when
//     every producer's output is resident;
//   - a layer whose staging tiles do not fit beside the resident
//     outputs evicts them all: each pays its DRAM write back, and later
//     readers fetch it from DRAM;
//   - a layer that reads a residual source which is not resident
//     fetches the source's output from DRAM again.
func (f *fuser) residency() (spans []groupSpan, baseline []groupCost) {
	g, l2 := f.g, f.opt.L2Bytes
	n := len(g.geo)
	// first[p] and last[p] are the first and last layers that read
	// layer p's output (n and -1 when nothing does); skips[i] lists the
	// residual sources layer i reads.
	first, last := make([]int, n), make([]int, n)
	for p, outs := range g.Outs {
		first[p], last[p] = n, -1
		if len(outs) > 0 {
			first[p], last[p] = outs[0], outs[len(outs)-1]
		}
	}
	skips := make([][]int, n)
	for _, e := range f.opt.Residuals {
		first[e.From], last[e.From] = min(first[e.From], e.To), max(last[e.From], e.To)
		if !slices.Contains(skips[e.To], e.From) {
			skips[e.To] = append(skips[e.To], e.From)
		}
	}

	spans = make([]groupSpan, n)
	baseline = make([]groupCost, n)
	// live lists the layers whose output is resident, in layer order.
	var live []int
	for i := range spans {
		// Outputs whose last reader has run leave L2. Every resident
		// output shrinks what this layer may use for staging; those a
		// later layer still reads are pinned while it runs.
		var liveBytes, held int64
		live = slices.DeleteFunc(live, func(p int) bool { return last[p] < i })
		for _, p := range live {
			b := g.geo[p].outElems * f.eb
			liveBytes += b
			if last[p] > i {
				held += b
			}
		}
		mp := &f.base[i]
		req := mp.r.L2ReqBytes()
		avail := l2 - liveBytes
		if l2 > 0 {
			if avail < req {
				// The resident outputs crowd out the staging tiles: every
				// one spills, paying the DRAM write its residency
				// discounted, and eviction frees the whole budget. An
				// output evicted before any reader ran was never resident.
				for _, p := range live {
					c := &spans[p].cost
					c.actW, c.writesPI = baseline[p].actW, baseline[p].writesPI
					c.outRes = first[p] < i
				}
				live, held = live[:0], 0
				// A budget that cannot even hold the staging tiles still
				// stages them: the layer needs them to run.
				avail = max(l2, req)
			}
			*mp = newMapping(mp.r.WithL2(avail), mp.df)
		}

		reads, writes := mp.r.DRAMTensorReads, mp.r.DRAMWrites
		var skipped int64
		for _, p := range skips[i] {
			skipped += g.geo[p].outElems
		}
		b := groupCost{
			feasible: true,
			actR:     reads[tensor.Input] + reads[tensor.Output] + skipped,
			wR:       reads[tensor.Weight],
			actW:     writes,
		}
		b.readsPI, b.writesPI = b.actR+b.wR, b.actW
		baseline[i] = b

		c := b
		c.retained = held
		for _, p := range skips[i] {
			if slices.Contains(live, p) {
				c.actR -= g.geo[p].outElems
			}
		}
		if ins := g.Ins[i]; len(ins) > 0 && !slices.ContainsFunc(ins, func(p int) bool { return !slices.Contains(live, p) }) {
			c.inRes = true
			c.actR -= min(reads[tensor.Input], scaledElems(g.Model.Layers[i].Layer, tensor.Input))
		}
		if l2 > 0 && last[i] >= 0 && g.geo[i].outElems*f.eb <= avail-req {
			c.outRes = true
			c.actW -= min(writes, g.geo[i].outElems)
			live = append(live, i)
		}
		c.readsPI, c.writesPI = c.actR+c.wR, c.actW
		spans[i] = groupSpan{lo: i, hi: i, cost: c}
	}
	return spans, baseline
}

// choose maps one layer of a schedule: the Dataflow callback's pick
// where it maps the layer, priced from the shared profile cache so that
// sweeps re-scheduling a model walk each layer once, and the tuner
// elsewhere, so a partially annotated network still schedules.
func choose(l tensor.Layer, cfg hw.Config, opt Options) (tuner.Choice, error) {
	if opt.Dataflow != nil {
		if df, ok := opt.Dataflow(l); ok {
			return tuner.Fixed(df, cfg)(l)
		}
	}
	return tuner.Tuned(cfg, tuner.Options{Objective: opt.Objective})(l)
}

func validateEdges(m models.Model, edges []Edge) error {
	for _, e := range edges {
		if e.From < 0 || e.To >= len(m.Layers) || e.To <= e.From+1 {
			return fmt.Errorf("netsched: residual edge %d->%d invalid (need From < To-1 within %d layers)",
				e.From, e.To, len(m.Layers))
		}
	}
	return nil
}
