// Package core is MAESTRO's performance- and cost-analysis engine
// (Sections 4.2-4.4): it walks a resolved dataflow level by level,
// enumerates the data-iteration cases (Init/Steady/Edge cross products,
// Figure 8), prices each case's ingress/egress traffic and compute under
// the abstract hardware model, and aggregates runtime, activity counts,
// buffer requirements and energy.
package core

import (
	"math"

	"repro/internal/tensor"
)

// TensorCounts holds one int64 per tensor kind.
type TensorCounts [tensor.NumKinds]int64

// Add accumulates o scaled by times.
func (t *TensorCounts) Add(o TensorCounts, times int64) {
	for i := range t {
		t[i] += o[i] * times
	}
}

// Sum returns the total across kinds.
func (t TensorCounts) Sum() int64 {
	var s int64
	for _, v := range t {
		s += v
	}
	return s
}

// counts aggregates the activity of one (level, sub-problem) node and
// everything below it, for a single invocation of that node.
//
// Buffer index convention: buffer i (0 <= i < numLevels) feeds cluster
// level i from above — buffer 0 is the shared L2 scratchpad. Buffer
// numLevels is the PE-private L1. Intermediate indices are logical
// staging points of the hierarchical distribution; their traffic is
// charged as NoC energy, not buffer energy.
type counts struct {
	bufRead  []TensorCounts
	bufWrite []TensorCounts
	noc      []int64        // element-hops per cluster level link
	peakBW   []float64      // max required ingress+egress rate per level, elems/cycle
	bufReq   []TensorCounts // 2x max live tile per buffer, elements
	macs     int64          // dense partial sums computed
	finalOut int64          // final (fully reduced) output elements committed
}

// addScaled accumulates o's additive fields scaled by times and merges
// the max-style fields (peak bandwidth, buffer requirements).
func (c *counts) addScaled(o *counts, times int64) {
	if times == 0 {
		return
	}
	for i := range c.bufRead {
		c.bufRead[i].Add(o.bufRead[i], times)
		c.bufWrite[i].Add(o.bufWrite[i], times)
		for k := range c.bufReq[i] {
			if o.bufReq[i][k] > c.bufReq[i][k] {
				c.bufReq[i][k] = o.bufReq[i][k]
			}
		}
	}
	for i := range c.noc {
		c.noc[i] += o.noc[i] * times
		if o.peakBW[i] > c.peakBW[i] {
			c.peakBW[i] = o.peakBW[i]
		}
	}
	c.macs += o.macs * times
	c.finalOut += o.finalOut * times
}

// copyActivity copies o's additive tables and staging requirements —
// every field but the peak rates, which depend on a lane's delays.
func (c *counts) copyActivity(o *counts) {
	copy(c.bufRead, o.bufRead)
	copy(c.bufWrite, o.bufWrite)
	copy(c.bufReq, o.bufReq)
	copy(c.noc, o.noc)
	c.macs, c.finalOut = o.macs, o.finalOut
}

// weightDensity returns the weight density treating the pooling
// convention (density 0 = "no weight tensor") as dense compute.
func weightDensity(l tensor.Layer) float64 {
	if l.Density[tensor.Weight] == 0 {
		return 1
	}
	return l.Density[tensor.Weight]
}

// scaleCount applies a density fraction to an element count.
func scaleCount(n int64, f float64) int64 {
	if f >= 1 {
		return n
	}
	return int64(float64(n)*f + 0.5)
}

// imbalanceFactor estimates how much slower the slowest of p PEs runs
// than the mean under Bernoulli sparsity with density d and n potential
// MACs per PE: the expected maximum of p binomials,
// n*d + sqrt(2*n*d*(1-d)*ln p), relative to the mean n*d.
func imbalanceFactor(n int64, d float64, p int) float64 {
	if d >= 1 || n <= 0 || p <= 1 {
		return 1
	}
	mean := float64(n) * d
	if mean <= 0 {
		return 1
	}
	return 1 + math.Sqrt(2*mean*(1-d)*math.Log(float64(p)))/mean
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int64 {
	var l int64
	for m := 1; m < n; m *= 2 {
		l++
	}
	return l
}

// tileForDims returns tensor k's footprint for a sub-problem of the given
// dimension sizes (used for the leaf L1 requirement). Iterates the DimSet
// directly to keep the per-leaf cost allocation-free.
func tileForDims(layer tensor.Layer, dims tensor.Sizes, k tensor.Kind) int64 {
	t := int64(1)
	set := layer.TensorDims(k)
	for d := tensor.Dim(0); d < tensor.NumDims; d++ {
		if !set.Has(d) {
			continue
		}
		switch {
		case k == tensor.Output && d == tensor.Y:
			t *= int64(tensor.OutSpan(dims.Get(tensor.Y), dims.Get(tensor.R), layer.StrideY))
		case k == tensor.Output && d == tensor.X:
			t *= int64(tensor.OutSpan(dims.Get(tensor.X), dims.Get(tensor.S), layer.StrideX))
		default:
			t *= int64(dims.Get(d))
		}
	}
	return t
}

// psumsFor returns the dense MAC count of a sub-problem.
func psumsFor(layer tensor.Layer, dims tensor.Sizes) int64 {
	oy := tensor.OutSpan(dims.Get(tensor.Y), dims.Get(tensor.R), layer.StrideY)
	ox := tensor.OutSpan(dims.Get(tensor.X), dims.Get(tensor.S), layer.StrideX)
	return int64(dims.Get(tensor.N)) * int64(dims.Get(tensor.K)) * int64(dims.Get(tensor.C)) *
		int64(oy) * int64(ox) * int64(dims.Get(tensor.R)) * int64(dims.Get(tensor.S))
}
