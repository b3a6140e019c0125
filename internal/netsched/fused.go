package netsched

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/models"
)

// FusedSchedule is a network schedule: the layer list partitioned into
// groups, with claimed off-chip traffic per group, and the baseline the
// same mappings and L2 budget cost with no cross-layer reuse. RunFused
// fills it with fusion subgraphs; Run with one singleton group per layer
// and the layer's residency decisions (GroupPlan.InputResident and
// OutputResident).
type FusedSchedule struct {
	Model   models.Model
	L2Bytes int64
	Groups  []GroupPlan

	TotalCycles int64
	// DRAMTraffic is the claimed off-chip element total over all
	// instances; ActTraffic its activation-only portion.
	DRAMTraffic int64
	ActTraffic  int64
	// BaselineDRAM/BaselineAct price every layer as its own group with
	// nothing kept across layers: for RunFused, each layer unfused under
	// the same L2 budget; for Run, the same groups with no output kept
	// resident (every residual source re-fetched).
	BaselineDRAM int64
	BaselineAct  int64
	// DRAMSaved = BaselineDRAM - DRAMTraffic.
	DRAMSaved int64
	EnergyPJ  float64
}

// FusedGroups counts the groups that actually fused (≥2 layers).
func (s *FusedSchedule) FusedGroups() int {
	n := 0
	for _, g := range s.Groups {
		if g.Fused {
			n++
		}
	}
	return n
}

// RunFused schedules the model as a partition of its activation DAG
// into fusion subgraphs, minimizing claimed DRAM traffic by interval DP
// over the topologically ordered layer list. The L2Bytes budget gates
// both fusion feasibility and per-layer retention; the L2Bytes=0
// sentinel disables fusion and retention entirely, reproducing the
// plain per-layer sum bit for bit. Options.Residuals is not consulted:
// skip connections belong in the model's Edges, where the partitioner
// sees them.
func RunFused(m models.Model, cfg hw.Config, opt FuseOptions) (*FusedSchedule, error) {
	s, err := RunFusedCaps(m, cfg, opt.Options, []int{opt.MaxGroupLayers})
	if err != nil {
		return nil, err
	}
	return s[0], nil
}

// RunFusedCaps schedules the model at one budget under each
// MaxGroupLayers cap in caps, returning one schedule per cap, each
// equal to RunFused's at that cap. The graph, the per-layer mappings
// and re-tunes, and the per-layer baseline are built once; with more
// than one cap every interval up to the largest cap is priced once and
// the partition DP runs per cap over those prices.
func RunFusedCaps(m models.Model, cfg hw.Config, opt Options, caps []int) ([]*FusedSchedule, error) {
	f, err := newFuser(m, cfg, opt)
	if err != nil {
		return nil, err
	}
	// A cap at or above the layer count admits every interval; a
	// non-positive cap means RunFused's default of 8.
	n := len(m.Layers)
	lens := make([]int, len(caps))
	width := 0
	for k, c := range caps {
		if c <= 0 {
			c = 8
		}
		lens[k] = min(c, n)
		width = max(width, lens[k])
	}
	if len(caps) > 1 {
		f.fillMemo(width)
	}
	out := make([]*FusedSchedule, len(caps))
	for k := range caps {
		s := &FusedSchedule{Model: m, L2Bytes: opt.L2Bytes}
		f.assemble(s, partitionDAG(f, lens[k]), f.single)
		out[k] = s
	}
	return out, nil
}

// newFuser validates the schedule inputs and builds what every cap of
// the budget shares: the graph, each layer's mapping, and each layer's
// singleton cost.
func newFuser(m models.Model, cfg hw.Config, opt Options) (*fuser, error) {
	cfg = cfg.Normalize()
	if opt.L2Bytes < 0 {
		return nil, fmt.Errorf("netsched: negative L2Bytes %d", opt.L2Bytes)
	}
	g, err := BuildGraph(m)
	if err != nil {
		return nil, err
	}
	n := len(m.Layers)
	f := &fuser{
		g: g, cfg: cfg, eb: elemBytes(cfg), opt: opt,
		base:   make([]mapping, n),
		single: make([]groupCost, n),
		need:   make([]int, n),
	}
	for i, li := range m.Layers {
		ch, err := choose(li.Layer, cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", li.Layer.Name, err)
		}
		f.base[i] = newMapping(ch.Result, ch.Dataflow)
	}
	for i := range f.single {
		f.single[i] = f.singletonCost(i)
	}
	return f, nil
}

// assemble fills s with the groups of a schedule and every total: each
// group's cycles, the schedule's cycles, DRAM and activation traffic,
// the baseline (baseline holds each layer's cost as its own group with
// nothing kept across layers) and DRAMSaved against it, energy, and the
// DRAM-link bound.
func (f *fuser) assemble(s *FusedSchedule, spans []groupSpan, baseline []groupCost) {
	m := f.g.Model
	for i, b := range baseline {
		count := int64(m.Layers[i].Count)
		s.BaselineDRAM += (b.readsPI + b.writesPI) * count
		s.BaselineAct += (b.actR + b.actW) * count
	}
	s.Groups = make([]GroupPlan, 0, len(spans))
	for _, sp := range spans {
		c := sp.cost
		count := int64(m.Layers[sp.lo].Count)
		gp := GroupPlan{
			Lo: sp.lo, Hi: sp.hi, Fused: c.fused,
			Count:    m.Layers[sp.lo].Count,
			TileRows: c.tile, Bands: c.bands, WeightsResident: c.weightsResident,
			InputResident: c.inRes, OutputResident: c.outRes,
			ActReads: c.actR, WeightReads: c.wR, ActWrites: c.actW,
			DRAMReads: c.readsPI, DRAMWrites: c.writesPI,
			RetainedBytes: c.retained, L2PeakBytes: c.peak,
			Members: make([]MemberPlan, 0, sp.hi-sp.lo+1),
		}
		if c.fused {
			gp.Externals = f.externals(sp.lo, sp.hi)
		}
		for v := sp.lo; v <= sp.hi; v++ {
			nInst := int64(m.Layers[v].Count)
			mp := &f.base[v]
			if c.fused {
				// Fused members run the mapping the capacity check
				// admitted: the compact re-tune, or the minimal-staging
				// fallback when the windows left no room for it.
				if c.msMembers {
					mp = f.msMapping(v)
				} else {
					mp = f.compactMapping(v)
				}
			}
			gp.Members = append(gp.Members, MemberPlan{
				Index: v, Inst: m.Layers[v], Dataflow: mp.df, Result: mp.r,
			})
			gp.Cycles += mp.r.OnChipRuntime * nInst
			s.EnergyPJ += mp.onChipPJ * float64(nInst)
		}
		traffic := (c.readsPI + c.writesPI) * count
		s.TotalCycles += gp.Cycles
		s.DRAMTraffic += traffic
		s.ActTraffic += (c.actR + c.actW) * count
		s.EnergyPJ += float64(traffic) * energy.DRAMPJ
		s.Groups = append(s.Groups, gp)
	}
	s.DRAMSaved = s.BaselineDRAM - s.DRAMTraffic
	// The DRAM link bounds the end-to-end runtime.
	dramDelay := int64(float64(s.DRAMTraffic)/f.cfg.OffchipBandwidth + 0.999999)
	if dramDelay > s.TotalCycles {
		s.TotalCycles = dramDelay
	}
}
