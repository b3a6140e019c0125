// Package reuse implements MAESTRO's reuse-analysis engine (Section 4.1):
// given one resolved cluster level of a dataflow and the layer it maps, it
// computes per-tensor tile sizes, classifies spatial reuse (multicast and
// reduction opportunities, Tables 1-2), and quantifies temporal reuse
// between adjacent time steps (stationarity and sliding-window halos).
package reuse

import (
	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// Loop is one temporal iteration of a level's nest: a temporal map, or
// the implicit fold loop of a folded spatial map. Loops are ordered
// outermost first.
type Loop struct {
	// Map is nil for the fold pseudo-loop.
	Map    *dataflow.ResolvedMap
	IsFold bool
	Steps  int
}

// Analysis binds the reuse engine to one level of one layer.
type Analysis struct {
	Level *dataflow.Level
	Layer tensor.Layer
	// Loops is the temporal nest of the level: its temporal maps in
	// directive order with the fold loop (if any) inserted at the nest
	// position of the first spatial map.
	Loops []Loop

	affects [tensor.NumKinds]uint64 // per kind: bitmask over loop indices
	spatial [tensor.NumKinds]bool   // tile varies across sub-clusters
	// outShiftY/outShiftX: output-tile shift per sub-cluster step along
	// the output row/column axes (spatial Y/R and X/S offsets cancelling,
	// divided by stride). Zero when output tiles coincide across PEs.
	outShiftY, outShiftX int
	// anchoredY/anchoredX report that the activation chunk hosts a full
	// filter window, so partial filter chunks accumulate in place rather
	// than shifting the outputs (tensor.EffectiveWindow).
	anchoredY, anchoredX bool
}

// New builds the analysis for a level.
func New(lv *dataflow.Level, layer tensor.Layer) *Analysis {
	a := &Analysis{Level: lv, Layer: layer, Loops: make([]Loop, 0, len(lv.Maps)+1)}
	for i := range lv.Maps {
		m := &lv.Maps[i]
		if i == lv.FoldPos {
			a.Loops = append(a.Loops, Loop{IsFold: true, Steps: lv.Folds})
		}
		if m.Kind == dataflow.Temporal {
			a.Loops = append(a.Loops, Loop{Map: m, Steps: m.Steps})
		}
	}
	a.anchoredY = lv.Map(tensor.Y).Size >= lv.Map(tensor.R).DimSize
	a.anchoredX = lv.Map(tensor.X).Size >= lv.Map(tensor.S).DimSize
	spOf := func(d tensor.Dim) int {
		if lv.IsSpatial(d) {
			return lv.Map(d).Offset
		}
		return 0
	}
	// An anchored window pins the outputs to the activation chunk: a
	// spatially mapped filter dim then reduces across PEs instead of
	// shifting their output tiles.
	rOff, sOff := spOf(tensor.R), spOf(tensor.S)
	if a.anchoredY {
		rOff = 0
	}
	if a.anchoredX {
		sOff = 0
	}
	a.outShiftY = outShift(spOf(tensor.Y), rOff, layer.StrideY)
	a.outShiftX = outShift(spOf(tensor.X), sOff, layer.StrideX)
	spatialDims := lv.SpatialDims()
	for _, k := range tensor.AllKinds() {
		dims := layer.TensorDims(k)
		for d := tensor.Dim(0); d < tensor.NumDims; d++ {
			if !spatialDims.Has(d) {
				continue
			}
			switch {
			case k == tensor.Output && (d == tensor.Y || d == tensor.R):
				if a.outShiftY != 0 {
					a.spatial[k] = true
				}
			case k == tensor.Output && (d == tensor.X || d == tensor.S):
				if a.outShiftX != 0 {
					a.spatial[k] = true
				}
			case dims.Has(d):
				a.spatial[k] = true
			}
		}
	}
	for li, lp := range a.Loops {
		for _, k := range tensor.AllKinds() {
			if a.loopAffects(k, lp) {
				a.affects[k] |= 1 << uint(li)
			}
		}
	}
	return a
}

// outShift computes the per-sub-cluster shift of the output tile along an
// output axis when the activation dim moves by actOff and the filter dim
// by filtOff per sub-cluster: |actOff - filtOff| / stride, rounded up.
func outShift(actOff, filtOff, stride int) int {
	d := actOff - filtOff
	if d < 0 {
		d = -d
	}
	return (d + stride - 1) / stride
}

// loopAffects reports whether advancing the loop changes tensor k's tile.
func (a *Analysis) loopAffects(k tensor.Kind, lp Loop) bool {
	if lp.IsFold {
		return a.spatial[k]
	}
	d := lp.Map.Dim
	if a.Layer.TensorDims(k).Has(d) {
		return true
	}
	// Filter dims shift the output window only when the activation chunk
	// cannot host a full window (diagonal co-mapping).
	if k == tensor.Output {
		if d == tensor.R {
			return !a.anchoredY
		}
		if d == tensor.S {
			return !a.anchoredX
		}
	}
	return false
}

// Affects reports whether advancing loop li changes tensor k's tile.
func (a *Analysis) Affects(k tensor.Kind, li int) bool {
	return a.affects[k]&(1<<uint(li)) != 0
}

// InnerAffecting reports whether any multi-step loop nested inside li
// changes tensor k's tile (which forfeits reuse credit: the buffer only
// holds the live tile).
func (a *Analysis) InnerAffecting(k tensor.Kind, li int) bool {
	for j := li + 1; j < len(a.Loops); j++ {
		if a.Loops[j].Steps > 1 && a.Affects(k, j) {
			return true
		}
	}
	return false
}

// SpatiallyVaries reports whether tensor k's tile differs across
// sub-clusters. A tensor that does not vary is a spatial multicast
// opportunity (inputs/weights) or a spatial reduction opportunity
// (outputs), per Table 1.
func (a *Analysis) SpatiallyVaries(k tensor.Kind) bool { return a.spatial[k] }

// OutputReduced reports whether the level's sub-clusters produce partial
// sums for the same output tile, requiring spatial reduction (Table 2).
func (a *Analysis) OutputReduced() bool {
	return len(a.Level.Spatial) > 0 && !a.spatial[tensor.Output]
}

// Chunks returns per-dimension chunk sizes given per-loop edge flags
// (true selects the loop's final clipped chunk) and whether the
// sub-cluster holds the spatially clipped final chunk.
func (a *Analysis) Chunks(edges []bool, spatialEdge bool) tensor.Sizes {
	var ch tensor.Sizes
	for i := range a.Level.Maps {
		m := &a.Level.Maps[i]
		sz := m.Size
		if m.Kind == dataflow.Spatial && spatialEdge {
			sz = m.EdgeSize
		}
		ch = ch.Set(m.Dim, sz)
	}
	for li, lp := range a.Loops {
		if !lp.IsFold && li < len(edges) && edges[li] {
			ch = ch.Set(lp.Map.Dim, lp.Map.EdgeSize)
		}
	}
	return ch
}

// SteadyChunks returns the chunk sizes with every loop at a steady chunk.
func (a *Analysis) SteadyChunks() tensor.Sizes {
	return a.Chunks(nil, false)
}

// axis is one independent extent of a tensor tile: per-sub-cluster and
// union-across-sub-clusters sizes, plus the dims whose advance shifts it.
type axis struct {
	perPE int64
	union int64
	dims  tensor.DimSet
}

// axisList is a tensor tile's decomposition into independent axes, by
// value: no tensor has more than four, so the per-case reuse queries
// build it on the stack.
type axisList struct {
	ax [4]axis
	n  int
}

func (l *axisList) add(ax axis) {
	l.ax[l.n] = ax
	l.n++
}

// list returns the populated axes.
func (l *axisList) list() []axis { return l.ax[:l.n] }

// axes decomposes tensor k's tile into independent axes for the given
// chunk sizes and `active` sub-clusters.
func (a *Analysis) axes(k tensor.Kind, ch tensor.Sizes, active int) axisList {
	direct := func(d tensor.Dim) axis {
		c := int64(ch.Get(d))
		u := c
		if a.Level.IsSpatial(d) {
			m := a.Level.Map(d)
			uu := (active-1)*m.Offset + ch.Get(d)
			if uu > m.DimSize {
				uu = m.DimSize
			}
			u = int64(uu)
		}
		return axis{perPE: c, union: u, dims: tensor.NewDimSet(d)}
	}
	outAxis := func(act, filt tensor.Dim, stride, shift int, anchored bool) axis {
		full := a.Level.Map(filt).DimSize
		win := tensor.EffectiveWindow(ch.Get(act), ch.Get(filt), full)
		o := int64(tensor.OutSpan(ch.Get(act), win, stride))
		u := o
		if shift != 0 {
			u = int64(active-1)*int64(shift) + o
			limWin := tensor.EffectiveWindow(a.Level.Dims.Get(act), ch.Get(filt), full)
			lim := int64(tensor.OutSpan(a.Level.Dims.Get(act), limWin, stride))
			if u > lim && lim > 0 {
				u = lim
			}
		}
		dims := tensor.NewDimSet(act, filt)
		if anchored {
			dims = tensor.NewDimSet(act)
		}
		return axis{perPE: o, union: u, dims: dims}
	}
	var axs axisList
	switch k {
	case tensor.Weight:
		axs.add(direct(tensor.C))
		axs.add(direct(tensor.R))
		axs.add(direct(tensor.S))
		if a.Layer.TensorDims(tensor.Weight).Has(tensor.K) {
			axs.add(direct(tensor.K))
		}
	case tensor.Input:
		axs.add(direct(tensor.N))
		axs.add(direct(tensor.C))
		axs.add(direct(tensor.Y))
		axs.add(direct(tensor.X))
	case tensor.Output:
		axs.add(direct(tensor.N))
		axs.add(outAxis(tensor.Y, tensor.R, a.Layer.StrideY, a.outShiftY, a.anchoredY))
		axs.add(outAxis(tensor.X, tensor.S, a.Layer.StrideX, a.outShiftX, a.anchoredX))
		if a.Layer.TensorDims(tensor.Output).Has(tensor.K) {
			axs.add(direct(tensor.K))
		} else {
			axs.add(direct(tensor.C))
		}
	}
	return axs
}

// TileOf returns the per-sub-cluster tile size (elements) of tensor k for
// the given chunk sizes.
func (a *Analysis) TileOf(k tensor.Kind, ch tensor.Sizes) int64 {
	axs := a.axes(k, ch, 1)
	t := int64(1)
	for _, ax := range axs.list() {
		t *= ax.perPE
	}
	return t
}

// UnionTile returns the unique elements of tensor k across `active`
// sub-clusters: spatially partitioned axes contribute their union extent
// (with halo overlap collapsed), multicast tensors contribute one tile.
func (a *Analysis) UnionTile(k tensor.Kind, ch tensor.Sizes, active int) int64 {
	if active < 1 {
		return 0
	}
	axs := a.axes(k, ch, active)
	t := int64(1)
	for _, ax := range axs.list() {
		t *= ax.union
	}
	return t
}

// NewData returns how many elements of tensor k must be newly staged when
// loop li advances, for the given chunk sizes. With union=true the amount
// is aggregated across `active` sub-clusters (unique elements); otherwise
// it is per sub-cluster. li == -1 denotes the level's very first step
// (everything is new). The temporal-reuse rules are:
//
//   - the loop doesn't change the tile and no inner loop does either -> 0
//     (full stationarity);
//   - the loop shifts the tile and no inner loop disturbs it -> only the
//     non-overlapping slice is new (sliding-window/halo reuse);
//   - otherwise the whole tile is refetched (the double-buffered local
//     store only holds the live tile).
func (a *Analysis) NewData(k tensor.Kind, li int, ch tensor.Sizes, union bool, active int) int64 {
	n := 1
	if union {
		n = active
	}
	axs := a.axes(k, ch, n)
	tile := int64(1)
	for _, ax := range axs.list() {
		if union {
			tile *= ax.union
		} else {
			tile *= ax.perPE
		}
	}
	if li < 0 {
		return tile
	}
	lp := a.Loops[li]
	if !a.Affects(k, li) {
		if a.InnerAffecting(k, li) {
			return tile
		}
		return 0
	}
	if a.InnerAffecting(k, li) || lp.IsFold {
		// Fold advances reshuffle every sub-cluster's spatial chunk; no
		// inter-PE forwarding is assumed, so no reuse credit.
		return tile
	}
	d := lp.Map.Dim
	shift := int64(a.shiftOf(k, d, lp.Map.Offset))
	for _, ax := range axs.list() {
		if !ax.dims.Has(d) {
			continue
		}
		extent := ax.perPE
		if union {
			extent = ax.union
		}
		if extent <= 0 {
			return tile
		}
		if shift > extent {
			shift = extent
		}
		return tile / extent * shift
	}
	return tile
}

// shiftOf returns the tile shift along tensor k's axis when dimension d
// advances by off.
func (a *Analysis) shiftOf(k tensor.Kind, d tensor.Dim, off int) int {
	if k != tensor.Output {
		return off
	}
	switch d {
	case tensor.Y, tensor.R:
		return (off + a.Layer.StrideY - 1) / a.Layer.StrideY
	case tensor.X, tensor.S:
		return (off + a.Layer.StrideX - 1) / a.Layer.StrideX
	}
	return off
}

// Psums returns the partial sums (MACs) one sub-cluster computes for one
// full pass over the given chunk sizes.
func (a *Analysis) Psums(ch tensor.Sizes) int64 {
	wy := tensor.EffectiveWindow(ch.Get(tensor.Y), ch.Get(tensor.R), a.Level.Map(tensor.R).DimSize)
	wx := tensor.EffectiveWindow(ch.Get(tensor.X), ch.Get(tensor.S), a.Level.Map(tensor.S).DimSize)
	oy := tensor.OutSpan(ch.Get(tensor.Y), wy, a.Layer.StrideY)
	ox := tensor.OutSpan(ch.Get(tensor.X), wx, a.Layer.StrideX)
	return int64(ch.Get(tensor.N)) * int64(ch.Get(tensor.K)) * int64(ch.Get(tensor.C)) *
		int64(oy) * int64(ox) * int64(ch.Get(tensor.R)) * int64(ch.Get(tensor.S))
}

// ChildDims returns the sub-problem one sub-cluster hands its children
// for the given chunk sizes. For an anchored window with a partial
// filter chunk, the child receives only the activation extent its filter
// taps touch ((outputs-1)*stride + filterChunk), so window arithmetic
// stays self-consistent down the hierarchy.
func (a *Analysis) ChildDims(ch tensor.Sizes) tensor.Sizes {
	shrink := func(act, filt tensor.Dim, stride int) {
		full := a.Level.Map(filt).DimSize
		cf := ch.Get(filt)
		if ca := ch.Get(act); ca >= full && cf < full {
			outs := tensor.OutSpan(ca, full, stride)
			ch = ch.Set(act, (outs-1)*stride+cf)
		}
	}
	shrink(tensor.Y, tensor.R, a.Layer.StrideY)
	shrink(tensor.X, tensor.S, a.Layer.StrideX)
	return ch
}
