package netsched

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/models"
)

// FusedSchedule is the graph-level schedule: the layer list partitioned
// into fusion subgraphs, with claimed off-chip traffic per group and the
// per-layer (unfused) baseline for the same mappings and L2 budget.
type FusedSchedule struct {
	Model   models.Model
	L2Bytes int64
	Groups  []GroupPlan

	TotalCycles int64
	// DRAMTraffic is the claimed off-chip element total over all
	// instances; ActTraffic its activation-only portion.
	DRAMTraffic int64
	ActTraffic  int64
	// BaselineDRAM/BaselineAct price every layer as its own group under
	// the same L2 budget — what the network costs without fusion.
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
	cfg = cfg.Normalize()
	if opt.L2Bytes < 0 {
		return nil, fmt.Errorf("netsched: negative L2Bytes %d", opt.L2Bytes)
	}
	g, err := BuildGraph(m)
	if err != nil {
		return nil, err
	}
	n := len(m.Layers)
	results := make([]*core.Result, n)
	dfs := make([]dataflow.Dataflow, n)
	for i, li := range m.Layers {
		df, r, err := chooseMapping(li.Layer, cfg, opt.Options)
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", li.Layer.Name, err)
		}
		results[i], dfs[i] = r, df
	}
	f := &fuser{g: g, cfg: cfg, eb: elemBytes(cfg), opt: opt, results: results, dfs: dfs}

	s := &FusedSchedule{Model: m, L2Bytes: opt.L2Bytes}
	for i := 0; i < n; i++ {
		sc := f.singletonCost(i)
		s.BaselineDRAM += sc.cost
		s.BaselineAct += (sc.actR + sc.actW) * int64(m.Layers[i].Count)
	}
	for _, sp := range partitionDAG(f) {
		c := sp.cost
		count := int64(m.Layers[sp.lo].Count)
		gp := GroupPlan{
			Lo: sp.lo, Hi: sp.hi, Fused: c.fused,
			Count:    m.Layers[sp.lo].Count,
			TileRows: c.tile, Bands: c.bands, WeightsResident: c.weightsResident,
			Externals: c.externals,
			ActReads:  c.actR, WeightReads: c.wR, ActWrites: c.actW,
			DRAMReads: c.readsPI, DRAMWrites: c.writesPI,
			RetainedBytes: c.retained, L2PeakBytes: c.peak,
		}
		for v := sp.lo; v <= sp.hi; v++ {
			nInst := int64(m.Layers[v].Count)
			r, df := results[v], dfs[v]
			if c.fused {
				// Fused members run the mapping the capacity check
				// admitted: the compact re-tune, or the minimal-staging
				// fallback when the windows left no room for it.
				if c.msMembers {
					r, df = f.msMapping(v)
				} else {
					r, df = f.compactMapping(v)
				}
			}
			gp.Members = append(gp.Members, MemberPlan{
				Index: v, Inst: m.Layers[v], Dataflow: df, Result: r,
			})
			gp.Cycles += r.OnChipRuntime * nInst
			s.EnergyPJ += r.EnergyDefault().OnChip() * float64(nInst)
		}
		s.TotalCycles += gp.Cycles
		s.DRAMTraffic += c.cost
		s.ActTraffic += (c.actR + c.actW) * count
		s.EnergyPJ += float64(c.cost) * energy.DRAMPJ
		s.Groups = append(s.Groups, gp)
	}
	s.DRAMSaved = s.BaselineDRAM - s.DRAMTraffic
	// The DRAM link bounds the end-to-end runtime, as in Run.
	dramDelay := int64(float64(s.DRAMTraffic)/cfg.OffchipBandwidth + 0.999999)
	if dramDelay > s.TotalCycles {
		s.TotalCycles = dramDelay
	}
	return s, nil
}
