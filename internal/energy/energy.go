// Package energy provides the per-event energy model MAESTRO multiplies
// activity counts with (Section 4.3, Figure 12).
//
// The paper feeds Cacti 6.0 simulations (28 nm, 2 KB L1, 1 MB L2) into
// this step. Cacti is unavailable here, so this package substitutes an
// analytical SRAM model calibrated against published CACTI/28 nm numbers:
// access energy grows roughly with the square root of capacity (bitline
// and wordline lengths scale with the array's side). The conclusions the
// paper draws need only the qualitative ordering (L2 access >> L1 access
// > MAC; DRAM >> everything), which the model preserves. Any table can be
// substituted (the paper suggests Accelergy), because the cost engine
// consumes a plain per-event table.
package energy

import "math"

// Table holds per-event energies in picojoules.
type Table struct {
	MAC     float64 // one multiply-accumulate
	L1Read  float64 // one element read from a PE-local scratchpad
	L1Write float64
	L2Read  float64 // one element read from the shared scratchpad
	L2Write float64
	NoCHop  float64 // moving one element across one NoC link
	DRAM    float64 // one element transferred to/from DRAM
}

// DRAMPJ is the energy (pJ) of moving one element to or from DRAM: the
// conventional ~200x MAC energy for off-chip DRAM. DefaultTable uses
// it, and so do the network schedulers, which re-price a layer's DRAM
// term after inter-layer residency and fusion.
const DRAMPJ = 200.0

// SRAMRead estimates the read energy (pJ) of one element access to a
// 28 nm SRAM scratchpad of the given byte capacity. The form
// base + k*sqrt(KB) is the standard Cacti-like capacity scaling.
func SRAMRead(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	kb := float64(bytes) / 1024
	return 0.35 + 0.9*math.Sqrt(kb)
}

// SRAMWrite estimates the write energy (pJ) of one element access;
// writes cost slightly more than reads in small scratchpads.
func SRAMWrite(bytes int64) float64 { return 1.1 * SRAMRead(bytes) }

// DefaultTable builds the per-event table for an accelerator with the
// given L1 (per-PE) and L2 (shared) scratchpad capacities, mirroring the
// paper's Cacti setup (28 nm, 2 KB L1, 1 MB L2 in the case studies).
func DefaultTable(l1Bytes, l2Bytes int64) Table {
	return Table{
		MAC:     1.0, // fixed-point MAC; the paper normalizes plots to this
		L1Read:  SRAMRead(l1Bytes),
		L1Write: SRAMWrite(l1Bytes),
		L2Read:  SRAMRead(l2Bytes),
		L2Write: SRAMWrite(l2Bytes),
		NoCHop:  0.35,
		DRAM:    DRAMPJ,
	}
}

// TableFor returns the per-event table for an accelerator with the given
// scratchpad capacities and PE count. The NoC hop energy grows with the
// wire span of the PE array (~sqrt(PEs)), which is what makes
// many-PE/high-bandwidth designs pay for their distribution network in
// the design-space exploration.
func TableFor(l1Bytes, l2Bytes int64, numPEs int) Table {
	t := DefaultTable(l1Bytes, l2Bytes)
	t.NoCHop = 0.15 + 0.06*math.Sqrt(float64(numPEs))
	return t
}

// Activity holds the activity counts the cost-analysis engine produces
// for one layer.
type Activity struct {
	MACs                  int64
	L1Reads, L1Writes     int64
	L2Reads, L2Writes     int64
	NoCTransfers          int64
	DRAMReads, DRAMWrites int64
}

// Total returns the total energy (pJ) of the activity under the table.
func (t Table) Total(a Activity) float64 {
	return t.MAC*float64(a.MACs) +
		t.L1Read*float64(a.L1Reads) + t.L1Write*float64(a.L1Writes) +
		t.L2Read*float64(a.L2Reads) + t.L2Write*float64(a.L2Writes) +
		t.NoCHop*float64(a.NoCTransfers) +
		t.DRAM*float64(a.DRAMReads+a.DRAMWrites)
}

// Breakdown is the per-component energy split of Figure 12.
type Breakdown struct {
	MAC, L1Read, L1Write, L2Read, L2Write, NoC, DRAM float64
}

// Split returns the per-component energies (pJ) of the activity.
func (t Table) Split(a Activity) Breakdown {
	return Breakdown{
		MAC:     t.MAC * float64(a.MACs),
		L1Read:  t.L1Read * float64(a.L1Reads),
		L1Write: t.L1Write * float64(a.L1Writes),
		L2Read:  t.L2Read * float64(a.L2Reads),
		L2Write: t.L2Write * float64(a.L2Writes),
		NoC:     t.NoCHop * float64(a.NoCTransfers),
		DRAM:    t.DRAM * float64(a.DRAMReads+a.DRAMWrites),
	}
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.MAC + b.L1Read + b.L1Write + b.L2Read + b.L2Write + b.NoC + b.DRAM
}

// OnChip returns the energy excluding DRAM, the quantity Figure 12 plots.
func (b Breakdown) OnChip() float64 { return b.Total() - b.DRAM }
