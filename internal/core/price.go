package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Price prices a recorded profile under one hardware configuration:
// the hardware-dependent arithmetic of the analysis — VectorWidth and
// SparseImbalance at the leaves, the Multicast/Reduction capabilities
// and Delay/DelayPer of the per-level NoC models, and the per-case
// outstanding-delay max — over the recorded quantities.
// Analyze(profile.Spec(), cfg) is exactly this call after the walk.
func Price(p *LayerProfile, cfg hw.Config) (*Result, error) {
	return p.Price(cfg)
}

// PriceBatch prices a recorded profile under every configuration in
// cfgs with a single DAG walk; see LayerProfile.PriceBatch.
func PriceBatch(p *LayerProfile, cfgs []hw.Config) ([]*Result, error) {
	return p.PriceBatch(cfgs)
}

// PriceCtx is Price wrapped in a "core.price" span when ctx carries an
// obs recorder; with tracing off it costs two context lookups over
// Price.
func (p *LayerProfile) PriceCtx(ctx context.Context, cfg hw.Config) (*Result, error) {
	_, span := obs.Start(ctx, "core.price",
		obs.String("layer", p.spec.Layer.Name),
		obs.Int("pes", p.spec.NumPEs))
	r, err := p.Price(cfg)
	span.End()
	return r, err
}

// PriceBatchCtx is PriceBatch wrapped in a single "core.price_batch"
// span carrying a "points" attribute — one span per axis, not one per
// point, which is what keeps tracing overhead in the DSE inner loop
// within the observability budget.
func (p *LayerProfile) PriceBatchCtx(ctx context.Context, cfgs []hw.Config) ([]*Result, error) {
	_, span := obs.Start(ctx, "core.price_batch",
		obs.String("layer", p.spec.Layer.Name),
		obs.Int("pes", p.spec.NumPEs),
		obs.Int("points", len(cfgs)))
	rs, err := p.PriceBatch(cfgs)
	span.End()
	return rs, err
}

// Price prices the profile under cfg. Safe to call concurrently on a
// shared profile: it only reads the recorded arena. Internally a batch
// of one, so the single-point and batch paths cannot drift apart.
func (p *LayerProfile) Price(cfg hw.Config) (*Result, error) {
	var one [1]hw.Config
	var res [1]*Result
	one[0] = cfg
	sc := batchScratchPool.Get().(*batchScratch)
	anyErr := p.priceBatchInto(sc, one[:], res[:])
	var err error
	if anyErr {
		err = sc.errs[0]
	}
	batchScratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// PriceBatch prices the profile under every configuration in cfgs with
// a single walk over the recorded arena, amortizing the DAG traversal
// across the whole batch. Results are bit-identical to calling Price on
// each configuration in isolation.
//
// Error contract: every configuration is validated and priced
// independently. results[i] is non-nil exactly when cfgs[i] priced
// successfully; a failed configuration leaves a nil slot and never
// poisons its neighbors. The returned error is nil when every
// configuration succeeded, otherwise the join of the per-configuration
// errors (each wrapped with its index, errors.Is-transparent — e.g.
// hw.ErrInvalidConfig still matches). An empty batch returns an empty
// non-nil slice and a nil error.
func (p *LayerProfile) PriceBatch(cfgs []hw.Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	if len(cfgs) == 0 {
		return results, nil
	}
	sc := batchScratchPool.Get().(*batchScratch)
	var err error
	if p.priceBatchInto(sc, cfgs, results) {
		joined := make([]error, 0, len(cfgs))
		for i, e := range sc.errs[:len(cfgs)] {
			if e != nil {
				joined = append(joined, fmt.Errorf("config %d (%q): %w", i, cfgs[i].Name, e))
			}
		}
		err = errors.Join(joined...)
	}
	batchScratchPool.Put(sc)
	return results, err
}

// batchScratch holds one pricing call's working set, pooled so
// steady-state batches allocate nothing beyond the escaping Result
// backing. All per-(node, lane) accumulators are carved from a few
// flat backing slices that grow to the largest profile × batch seen and
// are then reused verbatim.
type batchScratch struct {
	cfgs  []hw.Config // normalized valid configurations (the lanes)
	lanes []int32     // original cfg index of each lane
	errs  []error     // per-input-config validation errors
	nocms []noc.Model // NoC model per (level, lane)
	rep   []int32     // per lane, the lane that counts its traffic (itself when it counts)

	runtimes []int64  // per-(node, lane) outstanding delay
	counts   []counts // per-(level-node slot, lane) accumulator
	tc       []TensorCounts
	i64      []int64
	f64      []float64
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grown resizes s to n elements, reusing its backing when it fits. The
// contents are unspecified; callers clear the ranges they accumulate in.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// carveCounts points one accumulator's tables into the next stretch of
// the given backings and advances them. The backings must be zeroed.
func carveCounts(c *counts, buffers int, tc *[]TensorCounts, i64 *[]int64, f64 *[]float64) {
	b := buffers
	t := *tc
	c.bufRead = t[:b:b]
	c.bufWrite = t[b : 2*b : 2*b]
	c.bufReq = t[2*b : 3*b : 3*b]
	*tc = t[3*b:]
	c.noc = (*i64)[: b-1 : b-1]
	*i64 = (*i64)[b-1:]
	c.peakBW = (*f64)[: b-1 : b-1]
	*f64 = (*f64)[b-1:]
	c.macs, c.finalOut = 0, 0
}

// priceBatchInto validates cfgs and prices the valid ones in one walk,
// writing each success into results[i]. Per-config errors land in
// sc.errs[i] (valid until sc is next used); the return reports whether
// any config failed. The Result structs and the slices they retain are
// carved from fresh backing — only the transient accumulators live in
// the pooled scratch — so results stay valid after sc returns to the
// pool.
func (p *LayerProfile) priceBatchInto(sc *batchScratch, cfgs []hw.Config, results []*Result) bool {
	anyErr := false
	sc.errs = grown(sc.errs, len(cfgs))
	clear(sc.errs)
	sc.lanes = sc.lanes[:0]
	sc.cfgs = sc.cfgs[:0]
	for i := range cfgs {
		c := cfgs[i].Normalize()
		if err := checkConfig(p.spec, c); err != nil {
			sc.errs[i] = err
			anyErr = true
			continue
		}
		sc.lanes = append(sc.lanes, int32(i))
		sc.cfgs = append(sc.cfgs, c)
	}
	nl := len(sc.cfgs)
	if nl == 0 {
		return anyErr
	}

	nNodes := len(p.nodeLevel)
	buffers := p.nlv + 1
	sc.runtimes = grown(sc.runtimes, nNodes*nl)
	clear(sc.runtimes)
	sc.counts = grown(sc.counts, p.levelNodes*nl)
	sc.nocms = grown(sc.nocms, p.nlv*nl)
	for lv := 0; lv < p.nlv; lv++ {
		for l := 0; l < nl; l++ {
			sc.nocms[lv*nl+l] = sc.cfgs[l].NoCAt(lv)
		}
	}
	// Bandwidth and latency set delays, never traffic (§4.2's pipe
	// model), so lanes whose NoCs agree on Multicast and Reduction at
	// every level count the same activity. Only the first lane of each
	// such capability class, its representative, accumulates counts;
	// the others price their own runtime and peak rates and take a copy
	// of its tables.
	sc.rep = grown(sc.rep, nl)
	for l := 0; l < nl; l++ {
		sc.rep[l] = int32(l)
		for r := 0; r < l; r++ {
			if int(sc.rep[r]) == r && sameCaps(sc.nocms, p.nlv, nl, r, l) {
				sc.rep[l] = int32(r)
				break
			}
		}
	}

	// The root lanes' tables escape into the returned Results, so they
	// are carved from fresh per-call backing; every other accumulator
	// lives in the pooled scratch.
	resArr := make([]Result, nl)
	resTC := make([]TensorCounts, 3*buffers*nl)
	resI64 := make([]int64, (buffers-1)*nl)
	resF64 := make([]float64, (buffers-1)*nl)

	rootSlot := int(p.nodeSlot[nNodes-1])
	scratchLanes := (p.levelNodes - 1) * nl
	sc.tc = grown(sc.tc, 3*buffers*scratchLanes)
	clear(sc.tc)
	sc.i64 = grown(sc.i64, (buffers-1)*scratchLanes)
	clear(sc.i64)
	sc.f64 = grown(sc.f64, (buffers-1)*scratchLanes)
	clear(sc.f64)

	tcs, i64s, f64s := sc.tc, sc.i64, sc.f64
	tcr, i64r, f64r := resTC, resI64, resF64
	for s := 0; s < p.levelNodes; s++ {
		for l := 0; l < nl; l++ {
			if s == rootSlot {
				carveCounts(&sc.counts[s*nl+l], buffers, &tcr, &i64r, &f64r)
			} else {
				carveCounts(&sc.counts[s*nl+l], buffers, &tcs, &i64s, &f64s)
			}
		}
	}

	for i := 0; i < nNodes; i++ {
		if int(p.nodeLevel[i]) == p.nlv {
			// Leaf: only the ALU pricing is hardware-dependent.
			s := int(p.nodeSlot[i])
			psums, eff := p.leafPsums[s], p.leafEff[s]
			rts := sc.runtimes[i*nl : (i+1)*nl]
			for l := 0; l < nl; l++ {
				rts[l] = leafRuntime(psums, eff, p.spec.Layer, sc.cfgs[l])
			}
			continue
		}
		p.priceLevelBatch(sc, i, nl)
	}

	rootNode := nNodes - 1
	for l, lane := range sc.lanes {
		root := &sc.counts[rootSlot*nl+l]
		if r := int(sc.rep[l]); r != l {
			root.copyActivity(&sc.counts[rootSlot*nl+r])
		}
		fillResult(&resArr[l], p.spec, sc.cfgs[l], sc.runtimes[rootNode*nl+l], root)
		results[lane] = &resArr[l]
	}
	return anyErr
}

// sameCaps reports whether lanes a and b have NoCs of one capability
// class: equal Multicast and Reduction at every level.
func sameCaps(nocms []noc.Model, levels, nl, a, b int) bool {
	for lv := 0; lv < levels; lv++ {
		ma, mb := &nocms[lv*nl+a], &nocms[lv*nl+b]
		if ma.Multicast != mb.Multicast || ma.Reduction != mb.Reduction {
			return false
		}
	}
	return true
}

// checkConfig rejects an invalid normalized configuration, and one
// whose PE count differs from the count spec was resolved for.
func checkConfig(spec *dataflow.Spec, cfg hw.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if spec.NumPEs != cfg.NumPEs {
		return fmt.Errorf("%w: core: spec resolved for %d PEs but hardware has %d",
			hw.ErrInvalidConfig, spec.NumPEs, cfg.NumPEs)
	}
	return nil
}

// leafRuntime prices the PE pass: effective MACs at VectorWidth per
// cycle, stretched by the zero-skipping load imbalance when modeled.
func leafRuntime(psums, eff int64, layer tensor.Layer, cfg hw.Config) int64 {
	runtime := (eff + int64(cfg.VectorWidth) - 1) / int64(cfg.VectorWidth)
	if cfg.SparseImbalance {
		d := layer.Density[tensor.Input] * weightDensity(layer)
		runtime = int64(float64(runtime)*imbalanceFactor(psums, d, cfg.NumPEs) + 0.5)
	}
	return runtime
}

// priceLevelBatch prices one level node's recorded cases for every lane
// at once. The loop nest is cases-outer, lanes-inner: each recorded
// quantity is loaded once per case and priced against all
// configurations while it is hot. Per-lane arithmetic is fully
// independent, which is what makes the batch bit-identical to pricing
// each configuration alone. A lane that is not its class's
// representative stops after its runtime and peak rate: its counts
// would repeat the representative's.
func (p *LayerProfile) priceLevelBatch(sc *batchScratch, node, nl int) {
	level := int(p.nodeLevel[node])
	slot := int(p.nodeSlot[node])
	outputRed := p.outputReduced[slot]
	rts := sc.runtimes[node*nl : (node+1)*nl]
	nocms := sc.nocms[level*nl : (level+1)*nl]
	cnts := sc.counts[slot*nl : (slot+1)*nl]
	rep := sc.rep[:nl]

	for j := int(p.caseStart[node]); j < int(p.caseStart[node+1]); j++ {
		occ := p.caseOcc[j]
		active := p.caseActive[j]
		first := p.caseFlags[j]&caseFirst != 0
		final := p.caseFlags[j]&caseFinal != 0
		child := int(p.caseChild[j])
		edgeChild := int(p.caseEdgeChild[j])
		inPerPE := &p.caseInPerPE[j]
		inUnion := &p.caseInUnion[j]
		egPerPE := p.caseEgPerPE[j]
		egUnion := p.caseEgUnion[j]
		childRts := sc.runtimes[child*nl : (child+1)*nl]

		for l := 0; l < nl; l++ {
			nocm := &nocms[l]
			compute := childRts[l]
			if first && outputRed && nocm.Reduction {
				compute += log2ceil(int(active))
			}

			var reads TensorCounts
			var inTraffic int64
			for _, k := range tensor.AllKinds() {
				rd := inUnion[k]
				if !nocm.Multicast {
					rd = inPerPE[k] * active
				}
				reads[k] = rd
				inTraffic += rd
			}

			egWrites, egTraffic, rmwReads := egUnion, egUnion, int64(0)
			if outputRed && !nocm.Reduction && active > 1 {
				egWrites = egPerPE * active
				egTraffic = egWrites
				rmwReads = egPerPE * (active - 1)
			}

			inDelay := nocm.DelayPer(reads[tensor.Input], reads[tensor.Weight], reads[tensor.Output])
			outDelay := nocm.Delay(egTraffic) + 2*rmwReads
			outstanding := max3(inDelay, compute, outDelay)
			if first {
				outstanding = inDelay + compute + outDelay
			}
			rts[l] += occ * outstanding

			c := &cnts[l]
			if compute > 0 {
				bw := float64(inTraffic+egTraffic) / float64(compute)
				if bw > c.peakBW[level] {
					c.peakBW[level] = bw
				}
			}
			mainPEs := active
			if edgeChild >= 0 {
				mainPEs--
			}
			if int(rep[l]) != l {
				if edgeChild >= 0 {
					p.mergeChildPeak(sc, c, edgeChild, occ, nl, l)
				}
				p.mergeChildPeak(sc, c, child, occ*mainPEs, nl, l)
				continue
			}
			for _, k := range tensor.AllKinds() {
				c.bufRead[level][k] += occ * reads[k]
				c.bufWrite[level+1][k] += occ * inPerPE[k] * active
			}
			rmwBuf := level
			if rmwReads > 0 {
				rmwBuf = 0
			}
			c.bufRead[rmwBuf][tensor.Output] += occ * rmwReads
			c.bufWrite[rmwBuf][tensor.Output] += occ * (egWrites - egUnion)
			c.bufWrite[level][tensor.Output] += occ * egUnion
			c.bufRead[level+1][tensor.Output] += occ * egPerPE * active
			c.noc[level] += occ * (inTraffic + egTraffic)
			if final && level == 0 {
				c.finalOut += occ * egUnion
			}
			if edgeChild >= 0 {
				p.accumChild(sc, c, edgeChild, occ, nl, l)
			}
			p.accumChild(sc, c, child, occ*mainPEs, nl, l)
		}
	}

	// Final flush, per lane. Children stage below this level, so the
	// level's requirement is the node's own.
	flEgPerPE := p.flushEgPerPE[slot]
	flEgUnion := p.flushEgUnion[slot]
	flActive := p.flushActive[slot]
	for l := 0; l < nl; l++ {
		nocm := &nocms[l]
		egWrites, egTraffic := flEgUnion, flEgUnion
		var rmwReads int64
		if outputRed && !nocm.Reduction && flActive > 1 {
			egWrites = flEgPerPE * flActive
			egTraffic = egWrites
			rmwReads = flEgPerPE * (flActive - 1)
		}
		rts[l] += nocm.Delay(egTraffic) + 2*rmwReads
		if int(rep[l]) != l {
			continue
		}
		c := &cnts[l]
		c.bufReq[level] = p.bufReq[node]
		rmwBuf := level
		if rmwReads > 0 {
			rmwBuf = 0
		}
		c.bufRead[rmwBuf][tensor.Output] += rmwReads
		c.bufWrite[rmwBuf][tensor.Output] += egWrites - flEgUnion
		c.bufWrite[level][tensor.Output] += flEgUnion
		c.bufRead[level+1][tensor.Output] += flEgPerPE * flActive
		c.noc[level] += egTraffic
		if level == 0 {
			c.finalOut += flEgUnion
		}
	}
}

// accumChild folds one priced child into its parent's lane accumulator.
// Leaves are inlined: a PE's activity has exactly four nonzero additive
// entries (L1 operand reads and the accumulator write, all equal to the
// effective MACs) plus the L1 staging requirement, so the general
// addScaled sweep over every buffer level would only add zeros.
func (p *LayerProfile) accumChild(sc *batchScratch, c *counts, child int, times int64, nl, l int) {
	if times == 0 {
		return
	}
	s := int(p.nodeSlot[child])
	if int(p.nodeLevel[child]) == p.nlv {
		eff := p.leafEff[s]
		nlv := p.nlv
		c.bufRead[nlv][tensor.Input] += times * eff
		c.bufRead[nlv][tensor.Weight] += times * eff
		c.bufRead[nlv][tensor.Output] += times * eff
		c.bufWrite[nlv][tensor.Output] += times * eff
		c.macs += times * p.leafPsums[s]
		req := &p.bufReq[child]
		for k := range req {
			if req[k] > c.bufReq[nlv][k] {
				c.bufReq[nlv][k] = req[k]
			}
		}
		return
	}
	c.addScaled(&sc.counts[s*nl+l], times)
}

// mergeChildPeak is accumChild for a lane that is not its class's
// representative: of a child's counts it takes only the peak rates, the
// one table that depends on the lane's delays.
func (p *LayerProfile) mergeChildPeak(sc *batchScratch, c *counts, child int, times int64, nl, l int) {
	if times == 0 || int(p.nodeLevel[child]) == p.nlv {
		return // a leaf drives no link
	}
	o := &sc.counts[int(p.nodeSlot[child])*nl+l]
	for i, bw := range o.peakBW {
		if bw > c.peakBW[i] {
			c.peakBW[i] = bw
		}
	}
}
