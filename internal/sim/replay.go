// Fused-schedule replay: the validation oracle for the graph-level
// scheduler. ReplayFused re-executes a netsched.FusedSchedule band by
// band from the model geometry alone — it shares no cost arithmetic
// with the scheduler's interval pricing — counting DRAM transfers at
// first touch and tracking actual L2 occupancy. Verify then holds the
// scheduler's claimed traffic to the replayed measurement: exact on
// unfused groups, within a small tolerance on fused ones.

package sim

import (
	"fmt"

	"repro/internal/netsched"
	"repro/internal/tensor"
)

// GroupReplay is the replayed measurement of one fusion group.
type GroupReplay struct {
	Lo, Hi int
	Fused  bool
	// DRAMReads/DRAMWrites are replayed off-chip element transfers per
	// instance.
	DRAMReads, DRAMWrites int64
	// PeakL2Bytes is the largest replayed occupancy over all bands:
	// live windows + resident weights + staging + output bands.
	PeakL2Bytes int64
	// RefetchedRows counts rows a band needed after an earlier band's
	// window already drained them — nonzero means the scheduler's
	// monotone-band assumption broke and its claim undercounts traffic.
	RefetchedRows int64
}

// FusedReplay is the replayed schedule.
type FusedReplay struct {
	Groups []GroupReplay
	// DRAMReads/DRAMWrites/DRAMTraffic total over all instances.
	DRAMReads, DRAMWrites, DRAMTraffic int64
	// MACs is the model's total multiply-accumulate count — invariant
	// under any partitioning.
	MACs int64
}

// interval is a half-open row range.
type rowIv struct{ lo, hi int }

func (a rowIv) empty() bool { return a.hi <= a.lo }

func (a rowIv) len() int {
	if a.empty() {
		return 0
	}
	return a.hi - a.lo
}

func union(a, b rowIv) rowIv {
	if a.empty() {
		return b
	}
	if b.empty() {
		return a
	}
	return rowIv{min(a.lo, b.lo), max(a.hi, b.hi)}
}

// inRows maps a consumer's output row interval to the input rows it
// reads: [lo*stride, (hi-1)*stride + R).
func inRows(l tensor.Layer, out rowIv) rowIv {
	if out.empty() {
		return rowIv{}
	}
	return rowIv{out.lo * l.StrideY, (out.hi-1)*l.StrideY + l.Sizes.Get(tensor.R)}
}

// replayScale applies tensor density with the engine's rounding
// (core.scaleCount): densities >= 1 pass through, zero scales to zero.
func replayScale(n int64, d float64) int64 {
	if d >= 1 {
		return n
	}
	return int64(float64(n)*d + 0.5)
}

// ReplayFused replays every group of the schedule and returns the
// measured traffic: fused groups band by band, recomputing the band
// geometry from the model graph independently of the scheduler's cost
// model, and plain singletons through the per-layer engine at the
// schedule's budget. It does not replay Run's residency: a Run
// schedule's residency-adjusted claims are outside Verify's contract.
func ReplayFused(s *netsched.FusedSchedule) (*FusedReplay, error) {
	g, err := netsched.BuildGraph(s.Model)
	if err != nil {
		return nil, err
	}
	rep := &FusedReplay{}
	for _, inst := range s.Model.Layers {
		rep.MACs += inst.Layer.MACs() * int64(inst.Count)
	}
	for _, gp := range s.Groups {
		var gr GroupReplay
		if gp.Fused {
			gr, err = replayFusedGroup(g, &gp, s.L2Bytes)
		} else {
			gr, err = replaySingleton(&gp, s.L2Bytes)
		}
		if err != nil {
			return nil, err
		}
		rep.Groups = append(rep.Groups, gr)
		n := int64(gp.Count)
		rep.DRAMReads += gr.DRAMReads * n
		rep.DRAMWrites += gr.DRAMWrites * n
	}
	rep.DRAMTraffic = rep.DRAMReads + rep.DRAMWrites
	return rep, nil
}

// replaySingleton replays an unfused group through the per-layer engine
// at the schedule's L2 budget, taking the cheaper of the retention and
// pure-streaming policies — the same floor the scheduler claims.
func replaySingleton(gp *netsched.GroupPlan, l2 int64) (GroupReplay, error) {
	if len(gp.Members) != 1 {
		return GroupReplay{}, fmt.Errorf("sim: singleton group [%d,%d] has %d members", gp.Lo, gp.Hi, len(gp.Members))
	}
	r := gp.Members[0].Result
	gr := GroupReplay{Lo: gp.Lo, Hi: gp.Hi}
	if l2 == 0 {
		gr.DRAMReads, gr.DRAMWrites = r.DRAMReads, r.DRAMWrites
		gr.PeakL2Bytes = r.L2ReqBytes()
		return gr, nil
	}
	at := r.AtL2(l2)
	spillR := r.BufRead[0][tensor.Input] + r.BufRead[0][tensor.Weight]
	spillW := r.BufWrite[0][tensor.Output]
	if spillR+spillW < at.DRAMReads+at.DRAMWrites {
		gr.DRAMReads, gr.DRAMWrites = spillR, spillW
	} else {
		gr.DRAMReads, gr.DRAMWrites = at.DRAMReads, at.DRAMWrites
	}
	gr.PeakL2Bytes = min(l2, at.EffectiveL2)
	return gr, nil
}

// replayFusedGroup walks the group's bands in order. Per band it derives
// every member's output row interval backward from the writers' band,
// fetches external rows on first touch, streams or holds weights per
// the plan, and writes each writer's band once. Occupancy is measured
// per band; rows re-fetched after draining are reported.
func replayFusedGroup(g *netsched.Graph, gp *netsched.GroupPlan, l2 int64) (GroupReplay, error) {
	layers := g.Model.Layers
	lo, hi := gp.Lo, gp.Hi
	gr := GroupReplay{Lo: lo, Hi: hi, Fused: true}
	if gp.TileRows <= 0 || gp.Bands <= 0 {
		return gr, fmt.Errorf("sim: fused group [%d,%d] has no band plan", lo, hi)
	}
	writer := map[int]bool{}
	for _, w := range gp.Writers(g) {
		writer[w] = true
	}
	var outY int
	for w := range writer {
		outY = layers[w].Layer.OutY()
	}
	eb := int64(gp.Members[0].Result.Cfg.ElemBytes)

	// Static bytes: resident weights, the widest member's staging tiles.
	var weightBytes, staging, wElems int64
	for v := lo; v <= hi; v++ {
		l := layers[v].Layer
		w := replayScale(l.TensorSize(tensor.Weight), l.Density[tensor.Weight])
		wElems += w
		weightBytes += w * eb
		if s := gp.Members[v-lo].Result.L2ReqBytes(); s > staging {
			staging = s
		}
	}

	// First-touch high-water marks and previous-band windows.
	touched := map[int]int{} // member/ext key -> rows fetched or produced
	prevLo := map[int]int{}  // member/ext key -> last band's window start
	written := map[int]int{} // writer -> output rows written
	need := make([]rowIv, hi-lo+1)

	for b := 0; b < gp.Bands; b++ {
		band := rowIv{b * gp.TileRows, min((b+1)*gp.TileRows, outY)}
		if band.empty() {
			return gr, fmt.Errorf("sim: group [%d,%d] band %d empty", lo, hi, b)
		}
		// Backward pass: rows each member must produce this band.
		for v := hi; v >= lo; v-- {
			lv := layers[v].Layer
			var nd rowIv
			if writer[v] {
				nd = band
			}
			for _, c := range g.Outs[v] {
				if c > hi {
					continue
				}
				in := inRows(layers[c].Layer, need[c-lo])
				if in.hi > lv.OutY() {
					in.hi = lv.OutY()
				}
				nd = union(nd, in)
			}
			need[v-lo] = nd
		}
		// External windows: per distinct tensor, the union of its
		// consumers' input windows.
		extNeed := map[int]rowIv{}
		for v := lo; v <= hi; v++ {
			lv := layers[v].Layer
			in := inRows(lv, need[v-lo])
			if len(g.Ins[v]) == 0 {
				k := -(v + 1)
				if in.hi > lv.Sizes.Get(tensor.Y) {
					in.hi = lv.Sizes.Get(tensor.Y)
				}
				extNeed[k] = union(extNeed[k], in)
			}
			for _, p := range g.Ins[v] {
				if p >= lo {
					continue
				}
				pin := in
				if py := layers[p].Layer.OutY(); pin.hi > py {
					pin.hi = py
				}
				extNeed[p] = union(extNeed[p], pin)
			}
		}

		// Traffic: externals on first touch, re-fetches when a window
		// reaches below what an earlier band drained.
		var occ int64
		for k, iv := range extNeed {
			rowEl, d, limit := extTensor(g, k)
			if iv.hi > limit {
				iv.hi = limit
			}
			if iv.lo < prevLo[k] {
				rows := int64(prevLo[k] - iv.lo)
				gr.RefetchedRows += rows
				// Re-fetched rows cross DRAM again, priced like any
				// other row of this tensor.
				gr.DRAMReads += replayScale(rows*rowEl, d)
			}
			if iv.hi > touched[k] {
				touched[k] = iv.hi
			}
			prevLo[k] = iv.lo
			occ += int64(iv.len()) * rowEl * eb
		}
		// Intermediates live in L2 for the band; writers buffer one band.
		for v := lo; v <= hi; v++ {
			lv := layers[v].Layer
			rowEl := lv.TensorSize(tensor.Output) / int64(lv.OutY())
			if writer[v] {
				w := rowIv{band.lo, min(band.hi, lv.OutY())}
				if w.lo != written[v] {
					return gr, fmt.Errorf("sim: group [%d,%d] writer %d band %d starts at row %d, expected %d",
						lo, hi, v, b, w.lo, written[v])
				}
				written[v] = w.hi
				occ += int64(w.len()) * rowEl * eb
				// A writer also consumed in-group holds its extra rows.
				if need[v-lo].len() > w.len() {
					occ += int64(need[v-lo].len()-w.len()) * rowEl * eb
				}
			} else {
				occ += int64(need[v-lo].len()) * rowEl * eb
			}
		}
		occ += staging
		if gp.WeightsResident {
			occ += weightBytes
		}
		if occ > gr.PeakL2Bytes {
			gr.PeakL2Bytes = occ
		}
		if !gp.WeightsResident {
			gr.DRAMReads += wElems
		}
	}
	if gp.WeightsResident {
		gr.DRAMReads += wElems
	}

	// Coverage: every writer must have emitted its full output.
	for w := range writer {
		if oy := layers[w].Layer.OutY(); written[w] != oy {
			return gr, fmt.Errorf("sim: group [%d,%d] writer %d emitted %d of %d rows",
				lo, hi, w, written[w], oy)
		}
	}
	// Totals, density-scaled once at the end so full coverage reproduces
	// the whole-tensor sizes exactly.
	for k, rows := range touched {
		rowEl, d, limit := extTensor(g, k)
		if rows > limit {
			rows = limit
		}
		gr.DRAMReads += replayScale(int64(rows)*rowEl, d)
	}
	for w, rows := range written {
		lv := layers[w].Layer
		rowEl := lv.TensorSize(tensor.Output) / int64(lv.OutY())
		gr.DRAMWrites += replayScale(int64(rows)*rowEl, lv.Density[tensor.Output])
	}
	return gr, nil
}

// extTensor resolves an external-tensor key to its dense row element
// count, density, and row limit: a producer's output tensor, or the
// model input a root (key -(member+1)) reads.
func extTensor(g *netsched.Graph, key int) (rowEl int64, density float64, limit int) {
	if key < 0 {
		l := g.Model.Layers[-key-1].Layer
		limit = l.Sizes.Get(tensor.Y)
		if limit == 0 {
			return 0, l.Density[tensor.Input], 0
		}
		return l.TensorSize(tensor.Input) / int64(limit), l.Density[tensor.Input], limit
	}
	l := g.Model.Layers[key].Layer
	limit = l.OutY()
	if limit == 0 {
		return 0, l.Density[tensor.Output], 0
	}
	return l.TensorSize(tensor.Output) / int64(limit), l.Density[tensor.Output], limit
}

// Verify holds the schedule's claimed DRAM traffic to the replayed
// measurement: bit-exact on unfused groups, within tol (fractional,
// e.g. 0.02) on fused ones. The replayed peak occupancy must not exceed
// the claimed footprint, and no fused band may re-fetch drained rows.
func (rep *FusedReplay) Verify(s *netsched.FusedSchedule, tol float64) error {
	if len(rep.Groups) != len(s.Groups) {
		return fmt.Errorf("sim: %d replayed groups vs %d scheduled", len(rep.Groups), len(s.Groups))
	}
	for i, gr := range rep.Groups {
		gp := &s.Groups[i]
		if !gp.Fused {
			if gr.DRAMReads != gp.DRAMReads || gr.DRAMWrites != gp.DRAMWrites {
				return fmt.Errorf("sim: group [%d,%d] unfused claim %d/%d != replay %d/%d",
					gp.Lo, gp.Hi, gp.DRAMReads, gp.DRAMWrites, gr.DRAMReads, gr.DRAMWrites)
			}
			continue
		}
		if gr.RefetchedRows > 0 {
			return fmt.Errorf("sim: group [%d,%d] re-fetched %d drained rows", gp.Lo, gp.Hi, gr.RefetchedRows)
		}
		if gr.PeakL2Bytes > gp.L2PeakBytes {
			return fmt.Errorf("sim: group [%d,%d] replayed occupancy %d exceeds claimed %d",
				gp.Lo, gp.Hi, gr.PeakL2Bytes, gp.L2PeakBytes)
		}
		if !within(gr.DRAMReads, gp.DRAMReads, tol) || !within(gr.DRAMWrites, gp.DRAMWrites, tol) {
			return fmt.Errorf("sim: group [%d,%d] claim %d/%d diverges from replay %d/%d beyond %.1f%%",
				gp.Lo, gp.Hi, gp.DRAMReads, gp.DRAMWrites, gr.DRAMReads, gr.DRAMWrites, 100*tol)
		}
	}
	return nil
}

func within(a, b int64, tol float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	base := b
	if base < 0 {
		base = -base
	}
	return float64(d) <= tol*float64(base)
}
