// Package hw describes the abstract DNN accelerator of the paper's
// Figure 2 — PEs with private L1 scratchpads, a shared L2 scratchpad, and
// a NoC between them — plus the area/power models of the building blocks
// used by the design-space exploration of Section 5.2.
//
// The paper synthesizes multipliers, adders, buses, arbiters and
// scratchpads at 28 nm and fits regressions (linear for bus, quadratic
// for arbiter). Synthesis tooling is unavailable here, so this package
// embeds representative 28 nm constants under the same functional forms;
// Figure 13's conclusions depend on the forms, not the coefficients.
package hw

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/noc"
)

// ErrInvalidConfig tags hardware-configuration validation failures so
// callers can tell a malformed configuration apart from an internal
// fault with errors.Is(err, ErrInvalidConfig).
var ErrInvalidConfig = errors.New("invalid hardware config")

// Config is the hardware configuration MAESTRO analyzes a dataflow
// against: the parameters listed in Figure 2.
type Config struct {
	Name   string
	NumPEs int
	// VectorWidth is the ALU width of one PE in MACs per cycle.
	VectorWidth int
	// L1Size and L2Size are scratchpad capacities in bytes. Zero means
	// "size to the dataflow's requirement" (the DSE tool's behaviour:
	// "the DSE tool places the exact amount buffers MAESTRO reported").
	L1Size int64
	L2Size int64
	// NoCs holds the NoC model per cluster level, outermost first. A
	// dataflow with more levels than entries reuses the last entry for
	// the inner levels; an empty slice is invalid.
	NoCs []noc.Model
	// OffchipBandwidth is the DRAM link bandwidth in elements per cycle.
	OffchipBandwidth float64
	// ElemBytes is the datatype size (1 for int8, 2 for fp16...).
	ElemBytes int
	// SparseImbalance models the load imbalance of zero-skipping PEs
	// under random (Bernoulli) sparsity: the slowest PE of a step sees
	// more non-zeros than the mean, so the expected maximum of the
	// per-PE work governs the step (the statistical-sparsity extension
	// the paper leaves as future work in Section 4.4).
	SparseImbalance bool
	// ClockGHz converts cycles to seconds for throughput/power reporting.
	ClockGHz float64
}

// Normalize fills defaults and returns the config.
func (c Config) Normalize() Config {
	if c.VectorWidth == 0 {
		c.VectorWidth = 1
	}
	if c.ElemBytes == 0 {
		c.ElemBytes = 1
	}
	if c.ClockGHz == 0 {
		c.ClockGHz = 1
	}
	if c.OffchipBandwidth == 0 {
		c.OffchipBandwidth = 16
	}
	if len(c.NoCs) == 0 {
		c.NoCs = []noc.Model{noc.Bus(16)}
	}
	return c
}

// Validate reports an error for inconsistent parameters.
func (c Config) Validate() error {
	if c.NumPEs < 1 {
		return fmt.Errorf("%w: hw %s: NumPEs %d < 1", ErrInvalidConfig, c.Name, c.NumPEs)
	}
	if c.VectorWidth < 1 || c.ElemBytes < 1 {
		return fmt.Errorf("%w: hw %s: bad vector width or element size", ErrInvalidConfig, c.Name)
	}
	if c.L1Size < 0 || c.L2Size < 0 {
		return fmt.Errorf("%w: hw %s: negative scratchpad size", ErrInvalidConfig, c.Name)
	}
	// !(x > 0) rejects NaN too; ordered comparisons are always false on it.
	if !(c.ClockGHz > 0) || math.IsInf(c.ClockGHz, 0) {
		return fmt.Errorf("%w: hw %s: clock %v GHz must be positive and finite", ErrInvalidConfig, c.Name, c.ClockGHz)
	}
	if !(c.OffchipBandwidth > 0) || math.IsInf(c.OffchipBandwidth, 0) {
		return fmt.Errorf("%w: hw %s: off-chip bandwidth %v must be positive and finite", ErrInvalidConfig, c.Name, c.OffchipBandwidth)
	}
	if len(c.NoCs) == 0 {
		return fmt.Errorf("%w: hw %s: no NoC model", ErrInvalidConfig, c.Name)
	}
	for _, m := range c.NoCs {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("%w: hw %s: %v", ErrInvalidConfig, c.Name, err)
		}
	}
	return nil
}

// NoCAt returns the NoC model for cluster level i.
func (c Config) NoCAt(i int) noc.Model {
	if i < len(c.NoCs) {
		return c.NoCs[i]
	}
	return c.NoCs[len(c.NoCs)-1]
}

// PeakMACsPerCycle returns the compute roof of the configuration.
func (c Config) PeakMACsPerCycle() float64 {
	return float64(c.NumPEs * c.VectorWidth)
}

// Eyeriss-like and MAERI-like reference configurations used by the
// validation experiment (Figure 9).

// MAERI64 approximates the MAERI RTL configuration the paper validates
// against: 64 PEs behind fat distribution/reduction trees.
func MAERI64() Config {
	return Config{
		Name: "MAERI-64", NumPEs: 64, VectorWidth: 1,
		L1Size: 2 * 1024, L2Size: 1 << 20,
		NoCs: []noc.Model{noc.Tree(64)},
	}.Normalize()
}

// Eyeriss168 approximates the Eyeriss chip: 168 PEs, hierarchical buses
// with dedicated channels per tensor (the paper: "a bandwidth of 3X
// properly models the top level NoC").
func Eyeriss168() Config {
	m := noc.Bus(3)
	m.Reduction = true // PE-column psum forwarding
	m.Channels = 3     // dedicated input/weight/output channels
	return Config{
		Name: "Eyeriss-168", NumPEs: 168, VectorWidth: 1,
		L1Size: 512, L2Size: 108 * 1024,
		NoCs: []noc.Model{m},
	}.Normalize()
}

// Accel256 is the 256-PE, 32 GB/s configuration of the paper's case
// studies (Section 5.1).
func Accel256() Config {
	bw := noc.GBpsToElems(32, 1, 1)
	m := noc.Bus(bw)
	m.Reduction = true
	return Config{
		Name: "Accel-256", NumPEs: 256, VectorWidth: 1,
		L1Size: 2 * 1024, L2Size: 1 << 20,
		NoCs: []noc.Model{m},
	}.Normalize()
}

// CostModel holds the area (µm²) and power (mW) coefficients of the
// accelerator building blocks, following the paper's regression forms:
// MACs and SRAM linear, bus linear in endpoints, arbiter quadratic.
//
// Area and power must not fall as SRAM grows: SRAMAreaUm2PerB and
// SRAMPowerMWPerKB are nonnegative, as in Default28nm. The DSE counts
// the L1 capacities that fit its budget by binary search, which relies
// on it.
type CostModel struct {
	MACAreaUm2       float64 // one fixed-point MAC unit
	SRAMAreaUm2PerB  float64 // scratchpad area per byte
	BusAreaUm2PerEP  float64 // bus wiring per endpoint per element/cycle
	ArbAreaUm2PerEP2 float64 // arbiter area per endpoint squared

	MACPowerMW       float64 // one MAC at full utilization
	SRAMPowerMWPerKB float64 // leakage+clock per KB
	BusPowerMWPerEP  float64
	ArbPowerMWPerEP2 float64

	// StaticMWPerMM2 is the leakage power density; it charges slow
	// designs for the time their silicon idles (at the nominal clock,
	// 1 mW for 1 cycle at 1 GHz is exactly 1 pJ).
	StaticMWPerMM2 float64
}

// StaticEnergyPJ returns the leakage energy of `area` mm² over `cycles`
// at a 1 GHz nominal clock.
func (cm CostModel) StaticEnergyPJ(areaMM2 float64, cycles int64) float64 {
	return cm.StaticMWPerMM2 * areaMM2 * float64(cycles)
}

// Default28nm returns coefficients representative of a 28 nm process,
// calibrated so an Eyeriss-scale design (168 PEs, ~192 KB of SRAM,
// modest NoC) lands near the paper's reference envelope of 16 mm² /
// 450 mW.
func Default28nm() CostModel {
	return CostModel{
		MACAreaUm2:       1500,
		SRAMAreaUm2PerB:  3.5,
		BusAreaUm2PerEP:  80,
		ArbAreaUm2PerEP2: 0.45,

		MACPowerMW:       0.45,
		SRAMPowerMWPerKB: 0.25,
		BusPowerMWPerEP:  0.09,
		ArbPowerMWPerEP2: 0.0002,

		StaticMWPerMM2: 18,
	}
}

// Area returns the estimated die area in mm² for a configuration, given
// total L1 (all PEs) and L2 capacities in bytes and the top-level NoC
// bandwidth in elements/cycle.
func (cm CostModel) Area(numPEs int, l1Total, l2 int64, nocBW float64) float64 {
	um2 := cm.MACAreaUm2*float64(numPEs) +
		cm.SRAMAreaUm2PerB*float64(l1Total+l2) +
		cm.BusAreaUm2PerEP*float64(numPEs)*nocBW +
		cm.ArbAreaUm2PerEP2*float64(numPEs)*float64(numPEs)
	return um2 / 1e6
}

// Power returns the estimated peak power in mW under the same parameters.
func (cm CostModel) Power(numPEs int, l1Total, l2 int64, nocBW float64) float64 {
	return cm.MACPowerMW*float64(numPEs) +
		cm.SRAMPowerMWPerKB*float64(l1Total+l2)/1024 +
		cm.BusPowerMWPerEP*float64(numPEs)*nocBW/8 +
		cm.ArbPowerMWPerEP2*float64(numPEs)*float64(numPEs)
}
