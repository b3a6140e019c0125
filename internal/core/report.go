package core

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Result is MAESTRO's output for one layer on one dataflow and hardware
// configuration: the performance report and cost report of Figure 7.
type Result struct {
	Layer        tensor.Layer
	DataflowName string
	Cfg          hw.Config
	UsedPEs      int

	// Runtime is the end-to-end execution time in cycles, including the
	// DRAM bound when off-chip traffic dominates.
	Runtime int64
	// OnChipRuntime excludes the DRAM bound.
	OnChipRuntime int64
	// MACs is the dense partial-sum count the mapping computes; for an
	// exact mapping it equals the layer's algorithmic MACs.
	MACs int64
	// FinalOutputs counts the fully reduced output elements committed to
	// L2; for an exact mapping it equals the output tensor size.
	FinalOutputs int64

	// BufRead/BufWrite hold element accesses per buffer: index 0 is the
	// shared L2, the last index the PE-private L1, intermediate indices
	// the logical staging points of multi-level dataflows.
	BufRead  []TensorCounts
	BufWrite []TensorCounts
	// BufReq is the double-buffered capacity requirement per buffer and
	// tensor, in elements.
	BufReq []TensorCounts
	// NoCTraffic is the element-hops per cluster-level link.
	NoCTraffic []int64
	// PeakBW is the ingress+egress rate (elements/cycle) each level needs
	// to never stall behind compute — Figure 11(c)'s NoC BW requirement.
	PeakBW []float64

	DRAMReads, DRAMWrites int64
	// DRAMTensorReads splits DRAMReads by tensor; its output term is the
	// partial sums that overflow L2 and bounce off DRAM. DRAMWrites is
	// all output.
	DRAMTensorReads TensorCounts
	// EffectiveL2 is the shared-scratchpad capacity the DRAM model was
	// evaluated against (the configured size, or the requirement when the
	// configuration left it zero).
	EffectiveL2 int64
	// L2Spill reports that the dataflow's L2 requirement exceeded the
	// configured capacity, forcing refetches from DRAM.
	L2Spill bool
	// Bottleneck names the slowest stage: "compute", "noc", or "dram".
	Bottleneck string

	// sizes caches the density-scaled tensor footprints (elements).
	// applyL2 runs once per L2 capacity of each DSE mapping; the
	// footprints depend only on the layer, so they are computed once
	// when the result is filled.
	sizes TensorCounts
}

// fillResult writes one priced root — its on-chip runtime and its
// activity — into a caller-provided Result slot; PriceBatch fills a
// preallocated []Result this way so a whole batch costs one slice
// allocation. The slice-valued tables retain the root accumulator's
// backing.
func fillResult(r *Result, spec *dataflow.Spec, cfg hw.Config, runtime int64, c *counts) {
	layer := spec.Layer
	*r = Result{
		Layer:         layer,
		DataflowName:  spec.Dataflow.Name,
		Cfg:           cfg,
		UsedPEs:       spec.UsedPEs(),
		OnChipRuntime: runtime,
		MACs:          c.macs,
		FinalOutputs:  c.finalOut,
		BufRead:       c.bufRead,
		BufWrite:      c.bufWrite,
		BufReq:        c.bufReq,
		NoCTraffic:    c.noc,
		PeakBW:        c.peakBW,
	}
	for _, k := range tensor.AllKinds() {
		r.sizes[k] = scaleCount(layer.TensorSize(k), layer.Density[k])
	}
	r.applyL2(cfg.L2Size)
}

// applyL2 derives the DRAM traffic and the end-to-end runtime for a given
// shared-scratchpad capacity (0 means "exactly the dataflow's staging
// requirement"). The retention model is all-or-nothing per tensor: after
// reserving the double-buffered staging requirement, spare L2 capacity
// retains whole tensors greedily by refetch traffic saved per byte; a
// retained tensor costs DRAM only its compulsory traffic, an unretained
// one re-fetches every staged slice from DRAM.
func (r *Result) applyL2(l2 int64) {
	req := r.L2ReqBytes()
	if l2 == 0 {
		l2 = req
	}
	r.EffectiveL2 = l2
	var reads TensorCounts
	if l2 < req {
		// The staging tiles themselves do not fit: every L2-level access
		// spills off-chip.
		r.L2Spill = true
		reads[tensor.Input] = r.BufRead[0][tensor.Input]
		reads[tensor.Weight] = r.BufRead[0][tensor.Weight]
		r.DRAMWrites = r.BufWrite[0][tensor.Output]
	} else {
		r.L2Spill = false
		sizes := r.sizes
		type cand struct {
			kind   tensor.Kind
			bytes  int64
			saving int64 // DRAM traffic avoided by retaining the tensor
		}
		cands := make([]cand, 0, 3)
		for _, k := range []tensor.Kind{tensor.Input, tensor.Weight, tensor.Output} {
			size := sizes[k]
			traffic := r.BufRead[0][k]
			if k == tensor.Output {
				traffic = r.BufWrite[0][k] + r.BufRead[0][k]
			}
			cands = append(cands, cand{k, size * int64(r.Cfg.ElemBytes), traffic - size})
		}
		// Highest saving per byte first.
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				if float64(cands[j].saving)/float64(cands[j].bytes+1) >
					float64(cands[i].saving)/float64(cands[i].bytes+1) {
					cands[i], cands[j] = cands[j], cands[i]
				}
			}
		}
		spare := l2 - req
		var retained [tensor.NumKinds]bool
		for _, c := range cands {
			if c.saving > 0 && c.bytes <= spare {
				retained[c.kind] = true
				spare -= c.bytes
			}
		}
		for _, k := range []tensor.Kind{tensor.Input, tensor.Weight} {
			if retained[k] || r.BufRead[0][k] < sizes[k] {
				reads[k] = sizes[k]
			} else {
				reads[k] = r.BufRead[0][k]
			}
		}
		outSize := sizes[tensor.Output]
		if retained[tensor.Output] || r.BufWrite[0][tensor.Output] <= outSize {
			r.DRAMWrites = outSize
		} else {
			// Partial sums that overflow L2 bounce off DRAM.
			r.DRAMWrites = r.BufWrite[0][tensor.Output]
			reads[tensor.Output] = r.BufRead[0][tensor.Output]
		}
	}
	r.DRAMTensorReads = reads
	r.DRAMReads = reads.Sum()
	dramDelay := r.DRAMCycles()
	r.Runtime = r.OnChipRuntime
	r.Bottleneck = "compute"
	if dramDelay > r.Runtime {
		r.Runtime = dramDelay
		r.Bottleneck = "dram"
	} else if len(r.PeakBW) > 0 && r.PeakBW[0] > r.Cfg.NoCAt(0).Bandwidth {
		r.Bottleneck = "noc"
	}
}

// DRAMCycles returns the cycles the off-chip link takes to move the
// result's DRAM traffic at the configuration's OffchipBandwidth: the
// DRAM bound that Runtime is the larger of, with OnChipRuntime.
func (r *Result) DRAMCycles() int64 {
	return int64(float64(r.DRAMReads+r.DRAMWrites)/r.Cfg.OffchipBandwidth + 0.999999)
}

// WithL2 returns a copy of the result re-priced for a different L2
// capacity: DRAM traffic, runtime bound, and bottleneck are recomputed;
// the on-chip analysis is reused. This is what lets the DSE sweep buffer
// capacities without re-running the analytical engine.
func (r *Result) WithL2(l2Bytes int64) *Result {
	c := *r
	c.applyL2(l2Bytes)
	return &c
}

// AtL2 is WithL2 returned by value: hot sweep loops (the DSE's
// bandwidth × L2 axes) re-price capacities without a heap allocation
// per grid point.
func (r *Result) AtL2(l2Bytes int64) Result {
	c := *r
	c.applyL2(l2Bytes)
	return c
}

// L2Read/L2Write/L1Read/L1Write return the shared- and private-scratchpad
// access counts per tensor.
func (r *Result) L2Read(k tensor.Kind) int64  { return r.BufRead[0][k] }
func (r *Result) L2Write(k tensor.Kind) int64 { return r.BufWrite[0][k] }
func (r *Result) L1Read(k tensor.Kind) int64  { return r.BufRead[len(r.BufRead)-1][k] }
func (r *Result) L1Write(k tensor.Kind) int64 { return r.BufWrite[len(r.BufWrite)-1][k] }

// L1ReqBytes returns the per-PE L1 requirement in bytes (double
// buffered), L2ReqBytes the shared L2 requirement.
func (r *Result) L1ReqBytes() int64 {
	last := len(r.BufReq) - 1
	return r.BufReq[last].Sum() * int64(r.Cfg.ElemBytes)
}

// L2ReqBytes returns the shared-scratchpad requirement in bytes.
func (r *Result) L2ReqBytes() int64 {
	return r.BufReq[0].Sum() * int64(r.Cfg.ElemBytes)
}

// Throughput returns achieved MACs per cycle.
func (r *Result) Throughput() float64 {
	if r.Runtime == 0 {
		return 0
	}
	return float64(r.MACs) / float64(r.Runtime)
}

// Utilization returns achieved effective throughput over the compute
// peak. Sparse layers use their effective (non-skipped) MACs, so a
// zero-skipping accelerator never reports more than 100%.
func (r *Result) Utilization() float64 {
	if r.Runtime == 0 {
		return 0
	}
	eff := scaleCount(r.MACs, r.Layer.Density[tensor.Input]*weightDensity(r.Layer))
	return float64(eff) / float64(r.Runtime) / r.Cfg.PeakMACsPerCycle()
}

// ReuseFactor returns the number of local (L1) accesses per L2 fetch of
// tensor k — the reuse factor plotted in Figure 11.
func (r *Result) ReuseFactor(k tensor.Kind) float64 {
	fetches := r.L2Read(k)
	if k == tensor.Output {
		fetches = r.L2Write(k)
	}
	if fetches == 0 {
		return 0
	}
	local := r.L1Read(k)
	if k == tensor.Output {
		local = r.L1Write(k)
	}
	return float64(local) / float64(fetches)
}

// PeakBWGBps converts the top-level bandwidth requirement to GB/s.
func (r *Result) PeakBWGBps() float64 {
	if len(r.PeakBW) == 0 {
		return 0
	}
	return r.PeakBW[0] * r.Cfg.ClockGHz * float64(r.Cfg.ElemBytes)
}

// Activity flattens the counts into the energy model's activity record.
// Intermediate (logical) buffer levels are charged as NoC transfers.
func (r *Result) Activity() energy.Activity {
	last := len(r.BufRead) - 1
	var noct int64
	for _, n := range r.NoCTraffic {
		noct += n
	}
	eff := scaleCount(r.MACs, r.Layer.Density[tensor.Input]*weightDensity(r.Layer))
	return energy.Activity{
		MACs:         eff,
		L1Reads:      r.BufRead[last].Sum(),
		L1Writes:     r.BufWrite[last].Sum(),
		L2Reads:      r.BufRead[0].Sum(),
		L2Writes:     r.BufWrite[0].Sum(),
		NoCTransfers: noct,
		DRAMReads:    r.DRAMReads,
		DRAMWrites:   r.DRAMWrites,
	}
}

// Energy prices the activity under a per-event table.
func (r *Result) Energy(t energy.Table) energy.Breakdown {
	return t.Split(r.Activity())
}

// EnergyDefault prices the activity with the built-in 28 nm table sized
// to the configuration's scratchpads.
func (r *Result) EnergyDefault() energy.Breakdown {
	l1 := r.Cfg.L1Size
	if l1 == 0 {
		l1 = r.L1ReqBytes()
	}
	l2 := r.Cfg.L2Size
	if l2 == 0 {
		l2 = r.L2ReqBytes()
	}
	return r.Energy(energy.DefaultTable(l1, l2))
}

// EDP returns the energy-delay product in pJ*cycles under the table.
func (r *Result) EDP(t energy.Table) float64 {
	return r.Energy(t).Total() * float64(r.Runtime)
}

// CheckConservation verifies the two exactness invariants of the
// analysis: the mapping computes exactly the layer's algorithmic MACs and
// commits exactly the output tensor once. A dataflow that over-computes
// (overlapping output responsibility) or under-computes (coverage gaps)
// fails this check.
func (r *Result) CheckConservation() error {
	if r.MACs != r.Layer.MACs() {
		return fmt.Errorf("MAC conservation violated: computed %d, algorithmic %d",
			r.MACs, r.Layer.MACs())
	}
	want := scaleCount(r.Layer.TensorSize(tensor.Output), r.Layer.Density[tensor.Output])
	if r.FinalOutputs != want {
		return fmt.Errorf("output conservation violated: committed %d, tensor has %d",
			r.FinalOutputs, want)
	}
	return nil
}

// String renders a compact human-readable report.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "layer %s dataflow %s on %s (%d PEs, %d used)\n",
		r.Layer.Name, r.DataflowName, r.Cfg.Name, r.Cfg.NumPEs, r.UsedPEs)
	fmt.Fprintf(&b, "  runtime       %d cycles (%s-bound)\n", r.Runtime, r.Bottleneck)
	fmt.Fprintf(&b, "  MACs          %d (%.1f%% utilization)\n", r.MACs, 100*r.Utilization())
	fmt.Fprintf(&b, "  L2 rd/wr      %d / %d elems\n", r.BufRead[0].Sum(), r.BufWrite[0].Sum())
	last := len(r.BufRead) - 1
	fmt.Fprintf(&b, "  L1 rd/wr      %d / %d elems\n", r.BufRead[last].Sum(), r.BufWrite[last].Sum())
	fmt.Fprintf(&b, "  buffer req    L1 %dB/PE, L2 %dB\n", r.L1ReqBytes(), r.L2ReqBytes())
	fmt.Fprintf(&b, "  NoC BW req    %.2f GB/s\n", r.PeakBWGBps())
	e := r.EnergyDefault()
	fmt.Fprintf(&b, "  energy        %.3e pJ on-chip (%.3e incl DRAM)\n", e.OnChip(), e.Total())
	return b.String()
}
