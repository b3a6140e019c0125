package core

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/reuse"
	"repro/internal/tensor"
)

// This file keeps the fused single-pass cost walk as a test oracle.
// Analyze is Profile's recorded walk priced by Price; the oracle below
// enumerates the same data-iteration cases but prices each one under a
// single hardware configuration as it goes, with its own activity
// accounting. It shares the case enumerator, the reuse engine, the
// activity table (counts) and the leaf and result helpers with the
// production path, but none of the recording or pricing code, so
// TestPriceEquivalence, TestPriceBandwidthMonotonicProperty and
// FuzzPriceBatch check Analyze, Price and PriceBatch against a second
// derivation of every Result field.

// nodeRes is the analysis of one node: the outstanding delay of a full
// pass over its sub-problem (which becomes the parent's compute delay)
// and the activity it generates.
type nodeRes struct {
	runtime int64
	counts  *counts
}

// engine is the fused single-pass analyzer: it enumerates data-iteration
// cases and prices them under one hardware configuration in the same
// walk.
type engine struct {
	spec  *dataflow.Spec
	cfg   hw.Config
	layer tensor.Layer
	nlv   int // cluster levels; buffers are 0..nlv
	memo  map[memoKey]*nodeRes
}

// analyze resolves and prices one (level, dims) node, memoized.
func (e *engine) analyze(level int, dims tensor.Sizes) (*nodeRes, error) {
	key := memoKey{level, dims}
	if r, ok := e.memo[key]; ok {
		return r, nil
	}
	var r *nodeRes
	var err error
	if level == e.nlv {
		r = e.leaf(dims)
	} else {
		r, err = e.analyzeLevel(level, dims)
	}
	if err != nil {
		return nil, err
	}
	e.memo[key] = r
	return r, nil
}

// leaf prices one PE processing its tile: the PE's ALU performs the
// effective MACs at VectorWidth per cycle, reading both operands and
// reading+writing the accumulator in its L1 scratchpad.
func (e *engine) leaf(dims tensor.Sizes) *nodeRes {
	c := leafCounts(e.layer, dims, e.nlv)
	psums := c.macs
	eff := scaleCount(psums, e.layer.Density[tensor.Input]*weightDensity(e.layer))
	return &nodeRes{runtime: leafRuntime(psums, eff, e.layer, e.cfg), counts: c}
}

// leafCounts builds the hardware-independent activity of one PE pass
// over its tile.
func leafCounts(layer tensor.Layer, dims tensor.Sizes, nlv int) *counts {
	c := newCounts(nlv + 1)
	psums := psumsFor(layer, dims)
	eff := scaleCount(psums, layer.Density[tensor.Input]*weightDensity(layer))
	c.macs = psums
	c.bufRead[nlv][tensor.Input] += eff
	c.bufRead[nlv][tensor.Weight] += eff
	c.bufRead[nlv][tensor.Output] += eff
	c.bufWrite[nlv][tensor.Output] += eff
	for _, k := range tensor.AllKinds() {
		c.bufReq[nlv][k] = 2 * scaleCount(tileForDims(layer, dims, k), layer.Density[k])
	}
	return c
}

// analyzeLevel enumerates the data-iteration cases of one cluster level:
// the very first step, plus, for every multi-step loop, the steps at
// which that loop advances, crossed with first/steady/edge classes of the
// loops outside it (Figure 8's ExtractDataIterationCases).
func (e *engine) analyzeLevel(level int, dims tensor.Sizes) (*nodeRes, error) {
	lv, err := e.spec.Level(level, dims)
	if err != nil {
		return nil, err
	}
	a := reuse.New(lv, e.layer)
	loops := a.Loops
	nloops := len(loops)
	nocm := e.cfg.NoCAt(level)

	foldIdx := -1
	spatialEdge := false
	for i, lp := range loops {
		if lp.IsFold {
			foldIdx = i
		}
	}
	for _, si := range lv.Spatial {
		if lv.Maps[si].HasEdge() {
			spatialEdge = true
		}
	}

	c := newCounts(e.nlv + 1)
	res := &nodeRes{counts: c}

	// Scratch chunk-selection masks, reused across every case of this
	// level (each case fully rewrites them). Child levels recurse with
	// their own, so reuse is safe.
	var edgeBuf, oldEdgeBuf [maxLoops]bool
	edges, oldEdges := edgeBuf[:nloops], oldEdgeBuf[:nloops]

	// process prices one data-iteration case. adv == -1 is the level's
	// first step; otherwise loop adv advances with the loops inside it
	// reset and the loops outside it at the classes in cls.
	process := func(adv int, cls []loopClass, occ int64) error {
		// Chunk selection on arrival: a loop at its (clipped) final index
		// uses its edge chunk.
		for i, lc := range cls {
			edges[i] = lc.last && !loops[i].IsFold && loops[i].Map.HasEdge()
		}
		foldLast := foldIdx >= 0 && (loops[foldIdx].Steps == 1 || cls[foldIdx].last)
		active := lv.SubClusters
		if len(lv.Spatial) == 0 {
			active = 1
		} else if foldLast {
			active = lv.LastFoldActive
		}
		// Partial-sum staging flags: does the arriving output tile carry
		// prior partials (re-read), and is the departing tile final?
		redNonFirst, redAllLast := false, true
		for i := 0; i < nloops; i++ {
			if i == adv || loops[i].Steps < 2 || a.Affects(tensor.Output, i) {
				continue
			}
			if i < adv || adv == -1 {
				if !cls[i].first {
					redNonFirst = true
				}
				if !cls[i].last {
					redAllLast = false
				}
			}
			// Loops inside adv reset having completed; they do not block
			// finality and carry no pending revisit.
		}

		ch := a.Chunks(edges, false)
		hasEdgePE := spatialEdge && foldLast && active > 1
		child, err := e.analyze(level+1, a.ChildDims(ch))
		if err != nil {
			return err
		}
		compute := child.runtime
		var edgeChild *nodeRes
		if hasEdgePE {
			edgeChild, err = e.analyze(level+1, a.ChildDims(a.Chunks(edges, true)))
			if err != nil {
				return err
			}
		}
		if adv == -1 && a.OutputReduced() && nocm.Reduction {
			// The reduction tree pipelines across steps; its fill latency
			// shows up once, on the first step.
			compute += log2ceil(active)
		}

		// Ingress: new data staged for this step, per tensor.
		var reads, perPEIn TensorCounts
		var inTraffic int64
		for _, k := range tensor.AllKinds() {
			perPE, union := a.NewData(k, adv, ch, active)
			if k == tensor.Output {
				revisit := false
				if adv >= 0 {
					if !a.Affects(k, adv) && a.InnerAffecting(k, adv) {
						revisit = true
					} else if a.Affects(k, adv) {
						revisit = redNonFirst
					}
				}
				if !revisit {
					perPE, union = 0, 0
				}
			}
			d := e.layer.Density[k]
			perPE, union = scaleCount(perPE, d), scaleCount(union, d)
			rd := union
			if !nocm.Multicast {
				rd = perPE * int64(active)
			}
			reads[k] = rd
			perPEIn[k] = perPE
			inTraffic += rd
		}

		// Egress: the output slice displaced by this step's arrival (the
		// previous tile's inner loops completed at their final chunks).
		var egUnion, egPerPE int64
		final := false
		if adv >= 0 {
			copy(oldEdges, edges)
			for i := adv + 1; i < nloops; i++ {
				oldEdges[i] = !loops[i].IsFold && loops[i].Map.HasEdge()
			}
			oldEdges[adv] = false
			oldFoldLast := foldIdx >= 0 && (loops[foldIdx].Steps == 1 ||
				(foldIdx > adv || (foldIdx < adv && cls[foldIdx].last)))
			oldActive := lv.SubClusters
			if len(lv.Spatial) == 0 {
				oldActive = 1
			} else if oldFoldLast {
				oldActive = lv.LastFoldActive
			}
			chOld := a.Chunks(oldEdges, false)
			egPerPE, egUnion = a.NewData(tensor.Output, adv, chOld, oldActive)
			final = a.Affects(tensor.Output, adv) && redAllLast
		}
		d := e.layer.Density[tensor.Output]
		egPerPE, egUnion = scaleCount(egPerPE, d), scaleCount(egUnion, d)
		egWrites, egTraffic, rmwReads := egUnion, egUnion, int64(0)
		if a.OutputReduced() && !nocm.Reduction && active > 1 {
			// Without in-network reduction every sub-cluster's partials
			// travel up and accumulate read-modify-write in the parent.
			egWrites = egPerPE * int64(active)
			egTraffic = egWrites
			rmwReads = egPerPE * int64(active-1)
		}

		inDelay := nocm.DelayPer(reads[tensor.Input], reads[tensor.Weight], reads[tensor.Output])
		// Parent-side accumulation of unreduced partials serializes: each
		// one costs a scratchpad read and write at the parent.
		outDelay := nocm.Delay(egTraffic) + 2*rmwReads
		outstanding := max3(inDelay, compute, outDelay)
		if adv == -1 {
			// No double buffering on the very first step: fetch, compute
			// and drain serialize (Figure 8's IsFullInit case).
			outstanding = inDelay + compute + outDelay
		}
		res.runtime += occ * outstanding

		// Activity bookkeeping.
		for _, k := range tensor.AllKinds() {
			c.bufRead[level][k] += occ * reads[k]
			c.bufWrite[level+1][k] += occ * perPEIn[k] * int64(active)
		}
		// Unreduced partial sums accumulate in the shared scratchpad
		// (intermediate cluster levels have no physical buffer of their
		// own), so their read-modify-write traffic is charged to L2.
		rmwBuf := level
		if rmwReads > 0 {
			rmwBuf = 0
		}
		c.bufRead[rmwBuf][tensor.Output] += occ * rmwReads
		c.bufWrite[rmwBuf][tensor.Output] += occ * (egWrites - egUnion)
		c.bufWrite[level][tensor.Output] += occ * egUnion
		c.bufRead[level+1][tensor.Output] += occ * egPerPE * int64(active)
		c.noc[level] += occ * (inTraffic + egTraffic)
		if compute > 0 {
			bw := float64(inTraffic+egTraffic) / float64(compute)
			if bw > c.peakBW[level] {
				c.peakBW[level] = bw
			}
		}
		if final && level == 0 {
			// Only the top level's commits land in L2; inner levels pass
			// the same outputs upward and must not double-count them.
			c.finalOut += occ * egUnion
		}
		mainPEs := int64(active)
		if hasEdgePE {
			mainPEs--
			c.addScaled(edgeChild.counts, occ)
		}
		c.addScaled(child.counts, occ*mainPEs)
		// Buffer requirement: this level's parent stages the union tile,
		// double buffered.
		for _, k := range tensor.AllKinds() {
			req := 2 * scaleCount(a.UnionTile(k, ch, active), e.layer.Density[k])
			if req > c.bufReq[level][k] {
				c.bufReq[level][k] = req
			}
		}
		return nil
	}

	// Enumerate cases: START, then every advancing loop crossed with the
	// outer loops' first/steady/edge classes.
	en := newCaseEnum(a)
	for en.next() {
		if err := process(en.adv, en.classes(), en.occ); err != nil {
			return nil, err
		}
	}

	// Final flush: the last output tile departs once the nest completes
	// (every loop at its final index, the last fold active).
	for i, lp := range loops {
		edges[i] = !lp.IsFold && lp.Map.HasEdge()
	}
	active := lv.LastFoldActive
	if len(lv.Spatial) == 0 {
		active = 1
	}
	// UnionTile clips the union extent to the dimension, so the spatially
	// clipped final chunk is already accounted for.
	chFMain := a.Chunks(edges, false)
	d := e.layer.Density[tensor.Output]
	egPerPE := scaleCount(a.TileOf(tensor.Output, chFMain), d)
	egUnion := scaleCount(a.UnionTile(tensor.Output, chFMain, active), d)
	egWrites, egTraffic := egUnion, egUnion
	var rmwReads int64
	if a.OutputReduced() && !nocm.Reduction && active > 1 {
		egWrites = egPerPE * int64(active)
		egTraffic = egWrites
		rmwReads = egPerPE * int64(active-1)
	}
	res.runtime += nocm.Delay(egTraffic) + 2*rmwReads
	rmwBuf := level
	if rmwReads > 0 {
		rmwBuf = 0
	}
	c.bufRead[rmwBuf][tensor.Output] += rmwReads
	c.bufWrite[rmwBuf][tensor.Output] += egWrites - egUnion
	c.bufWrite[level][tensor.Output] += egUnion
	c.bufRead[level+1][tensor.Output] += egPerPE * int64(active)
	c.noc[level] += egTraffic
	if level == 0 {
		c.finalOut += egUnion
	}
	return res, nil
}

func newCounts(buffers int) *counts {
	// One backing array serves all three per-buffer tables; the full
	// slice expressions keep an (impossible) append on one table from
	// bleeding into the next.
	tc := make([]TensorCounts, 3*buffers)
	return &counts{
		bufRead:  tc[:buffers:buffers],
		bufWrite: tc[buffers : 2*buffers : 2*buffers],
		bufReq:   tc[2*buffers:],
		noc:      make([]int64, buffers-1),
		peakBW:   make([]float64, buffers-1),
	}
}

// oracleAnalyze runs the fused walk on a resolved dataflow and
// hardware configuration and returns the report.
func oracleAnalyze(spec *dataflow.Spec, cfg hw.Config) (*Result, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if spec.NumPEs != cfg.NumPEs {
		return nil, fmt.Errorf("%w: core: spec resolved for %d PEs but hardware has %d",
			hw.ErrInvalidConfig, spec.NumPEs, cfg.NumPEs)
	}
	e := &engine{
		spec:  spec,
		cfg:   cfg,
		layer: spec.Layer,
		nlv:   spec.NumLevels(),
		memo:  make(map[memoKey]*nodeRes),
	}
	root, err := e.analyze(0, spec.Layer.Sizes)
	if err != nil {
		return nil, err
	}
	r := &Result{}
	fillResult(r, spec, cfg, root.runtime, root.counts)
	return r, nil
}
