package netsched

import "repro/internal/tensor"

// This file keeps the map-based interval pricing the scheduler used
// before it read per-layer geometry from the Graph: every call re-derives
// the layer shapes from tensor.Layer, tracks external tensors in maps,
// and searches every (band height, weight residency) variant. It is the
// oracle TestIntervalCostMatchesOracle checks the production pricing
// against, interval by interval.

func oracleWritesOut(g *Graph, i, hi int) bool {
	for _, c := range g.Outs[i] {
		if c > hi {
			return true
		}
	}
	return len(g.Outs[i]) == 0
}

func oracleExtKey(member, p int) int {
	if p < 0 {
		return -(member + 1)
	}
	return p
}

func oracleAppendKey(keys []int, k int) []int {
	for _, have := range keys {
		if have == k {
			return keys
		}
	}
	return append(keys, k)
}

func oracleInColsFor(l tensor.Layer, outCols int) int {
	if outCols <= 0 {
		return 0
	}
	return (outCols-1)*l.StrideX + l.Sizes.Get(tensor.S)
}

func oracleExtRowInfo(g *Graph, key int) (rowEl int64, density float64, limit int) {
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
	return outRowElems(l), l.Density[tensor.Output], limit
}

func oracleTileCandidates(rows int) []int {
	var c []int
	for t := rows; t > 1; t = (t + 1) / 2 {
		c = append(c, t)
	}
	return append(c, 1)
}

func oracleCheckFusible(g *Graph, lo, hi int) bool {
	layers := g.Model.Layers
	count := layers[lo].Count
	extSeen := map[int]bool{}
	var wOutY, wOutX int
	for v := lo; v <= hi; v++ {
		lv := layers[v].Layer
		if !fusibleOp(lv.Op) || layers[v].Count != count {
			return false
		}
		connected := v == lo
		shares := false
		for _, p := range g.Ins[v] {
			if p >= lo {
				connected = true
				continue
			}
			if extSeen[oracleExtKey(v, p)] {
				shares = true
			}
		}
		if len(g.Ins[v]) == 0 && v != lo {
			return false
		}
		if !connected && !shares {
			return false
		}
		if len(g.Ins[v]) > 0 {
			sum := 0
			for _, p := range g.Ins[v] {
				sum += outChannels(layers[p].Layer)
			}
			if sum != lv.Sizes.Get(tensor.C) {
				return false
			}
		}
		for _, p := range g.Ins[v] {
			if p < lo {
				extSeen[oracleExtKey(v, p)] = true
				continue
			}
			lp := layers[p].Layer
			dy := inRowsFor(lv, lv.OutY()) - lp.OutY()
			dx := oracleInColsFor(lv, lv.OutX()) - lp.OutX()
			if dy < 0 || dy > lv.Sizes.Get(tensor.R)-1 ||
				dx < 0 || dx > lv.Sizes.Get(tensor.S)-1 {
				return false
			}
		}
		if oracleWritesOut(g, v, hi) {
			if wOutY == 0 {
				wOutY, wOutX = lv.OutY(), lv.OutX()
			} else if lv.OutY() != wOutY || lv.OutX() != wOutX {
				return false
			}
		}
	}
	return true
}

func oracleNeedOutRows(g *Graph, lo, hi, tileRows int) []int {
	layers := g.Model.Layers
	need := make([]int, hi-lo+1)
	for v := hi; v >= lo; v-- {
		lv := layers[v].Layer
		rows := 0
		if oracleWritesOut(g, v, hi) {
			rows = min(tileRows, lv.OutY())
		}
		for _, c := range g.Outs[v] {
			if c > hi {
				continue
			}
			lc := layers[c].Layer
			in := inRowsFor(lc, need[c-lo])
			if in > lv.OutY() {
				in = lv.OutY()
			}
			if in > rows {
				rows = in
			}
		}
		need[v-lo] = rows
	}
	return need
}

func oracleFusedClaims(g *Graph, lo, hi int) (actR, wR, actW int64, externals []int) {
	layers := g.Model.Layers
	extRows := map[int]int{}
	for v := lo; v <= hi; v++ {
		lv := layers[v].Layer
		wR += scaledElems(lv, tensor.Weight)
		in := inRowsFor(lv, lv.OutY())
		if len(g.Ins[v]) == 0 {
			k := oracleExtKey(v, -1)
			if in > extRows[k] {
				extRows[k] = in
			}
			externals = oracleAppendKey(externals, k)
		}
		for _, p := range g.Ins[v] {
			if p >= lo {
				continue
			}
			if in > extRows[p] {
				extRows[p] = in
			}
			externals = oracleAppendKey(externals, p)
		}
		if oracleWritesOut(g, v, hi) {
			actW += scaledElems(lv, tensor.Output)
		}
	}
	for k, rows := range extRows {
		rowEl, d, limit := oracleExtRowInfo(g, k)
		if rows > limit {
			rows = limit
		}
		actR += scaleRows(rows, rowEl, d)
	}
	return actR, wR, actW, externals
}

func oracleFootprint(f *fuser, lo, hi, tileRows int) (retained, weights, outBands int64) {
	g, eb := f.g, f.eb
	layers := g.Model.Layers
	needT := oracleNeedOutRows(g, lo, hi, tileRows)

	extRows := map[int]int{}
	for v := lo; v <= hi; v++ {
		lv := layers[v].Layer
		weights += scaledElems(lv, tensor.Weight) * eb
		if oracleWritesOut(g, v, hi) {
			outBands += int64(min(tileRows, lv.OutY())) * outRowElems(lv) * eb
		} else {
			retained += int64(needT[v-lo]) * outRowElems(lv) * eb
		}
		in := inRowsFor(lv, needT[v-lo])
		if len(g.Ins[v]) == 0 {
			k := oracleExtKey(v, -1)
			if in > extRows[k] {
				extRows[k] = in
			}
		}
		for _, p := range g.Ins[v] {
			if p < lo && in > extRows[p] {
				extRows[p] = in
			}
		}
	}
	for k, rows := range extRows {
		rowEl, _, limit := oracleExtRowInfo(g, k)
		if rows > limit {
			rows = limit
		}
		retained += int64(rows) * rowEl * eb
	}
	return retained, weights, outBands
}

func oracleStagingBytes(f *fuser, lo, hi int) (compact, ms int64) {
	for v := lo; v <= hi; v++ {
		if r := f.compactMapping(v).r; r.L2ReqBytes() > compact {
			compact = r.L2ReqBytes()
		}
		if r := f.msMapping(v).r; r.L2ReqBytes() > ms {
			ms = r.L2ReqBytes()
		}
	}
	return compact, ms
}

// oracleIntervalCost prices [lo, hi] by the exhaustive variant search
// and returns the external tensors a fused interval reads.
func oracleIntervalCost(f *fuser, lo, hi int) (groupCost, []int) {
	if lo == hi {
		return f.singletonCost(lo), nil
	}
	if f.opt.L2Bytes <= 0 || !oracleCheckFusible(f.g, lo, hi) {
		return groupCost{}, nil
	}
	var wOutY int
	for v := lo; v <= hi; v++ {
		if oracleWritesOut(f.g, v, hi) {
			wOutY = f.g.Model.Layers[v].Layer.OutY()
			break
		}
	}
	actR, wElems, actW, ext := oracleFusedClaims(f.g, lo, hi)
	count := int64(f.g.Model.Layers[lo].Count)
	stC, stMS := oracleStagingBytes(f, lo, hi)
	var best groupCost
	var bestExt []int
	for _, t := range oracleTileCandidates(wOutY) {
		retained, weights, outBands := oracleFootprint(f, lo, hi, t)
		base := retained + outBands
		bands := (wOutY + t - 1) / t
		for _, resident := range []bool{true, false} {
			peak, wR := base, wElems
			if resident {
				peak += weights
			} else {
				wR = wElems * int64(bands)
			}
			staging, msUsed := stC, false
			if peak+staging > f.opt.L2Bytes {
				staging, msUsed = stMS, true
			}
			peak += staging
			if peak > f.opt.L2Bytes {
				continue
			}
			cost := (actR + wR + actW) * count
			if best.feasible && (cost > best.cost || (cost == best.cost && bands >= best.bands)) {
				continue
			}
			best = groupCost{
				feasible: true, fused: true,
				tile: t, bands: bands, weightsResident: resident,
				msMembers: msUsed,
				actR:      actR, wR: wR, actW: actW,
				readsPI: actR + wR, writesPI: actW,
				retained: retained, peak: peak,
				cost: cost,
			}
			bestExt = ext
		}
	}
	return best, bestExt
}
