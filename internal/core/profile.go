// Profile/Price split: the expensive recursive cluster walk — resolving
// levels, enumerating data-iteration cases, and quantifying reuse — is
// independent of the hardware configuration (only the NoC delay/capability
// models, the ALU vector width, and the sparsity-imbalance pricing touch
// hw.Config). Profile runs that walk once per (dataflow, layer, numPEs)
// and records, per case, the hardware-independent quantities: per-tensor
// ingress (per-PE and union), egress, occurrence counts and active
// sub-clusters, plus each node's buffer requirement. Price (price.go) then re-prices
// the recorded DAG under any hardware point in microseconds, which is
// what lets the DSE sweep the NoC-bandwidth axis without re-running the
// engine.
package core

import (
	"context"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/reuse"
	"repro/internal/tensor"
)

// LayerProfile is the memoized, hardware-independent analysis of one
// (dataflow, layer, numPEs) triple: the node DAG of the cluster walk
// with every data-iteration case's traffic quantities recorded. It is
// immutable after Profile returns and safe for concurrent Price and
// PriceBatch calls.
//
// The DAG is stored as a flat struct-of-arrays arena rather than
// pointer-linked nodes: all case quantities of one field live in a
// single contiguous slice, child references are node indices, and the
// node order is topological (every case's children precede their
// parent; the root — level 0, full layer — is the last node). A Price
// walk is therefore a single forward sweep over dense arrays, and a
// PriceBatch walk streams each recorded quantity exactly once while
// pricing every configuration lane against it.
type LayerProfile struct {
	spec *dataflow.Spec
	nlv  int

	// Per-node arrays, indexed by topological node index.
	nodeLevel []int32 // cluster level; == nlv marks a leaf
	nodeSlot  []int32 // dense index into the level-node or leaf arrays
	caseStart []int32 // node i's cases span [caseStart[i], caseStart[i+1])
	// bufReq is the double-buffered staging requirement at the node's
	// own buffer: the PE's L1 for a leaf, the largest over a level
	// node's cases otherwise.
	bufReq []TensorCounts

	// Level-node arrays, indexed by nodeSlot of non-leaf nodes.
	outputReduced []bool
	flushEgPerPE  []int64
	flushEgUnion  []int64
	flushActive   []int64

	// Leaf arrays, indexed by nodeSlot of leaves.
	leafPsums []int64 // dense MACs of the tile
	leafEff   []int64 // density-scaled effective MACs

	// Per-case arrays, indexed by global case index. Semantics match the
	// recording profCase field for field; first/final live in caseFlags.
	caseOcc       []int64
	caseActive    []int64
	caseFlags     []uint8
	caseChild     []int32
	caseEdgeChild []int32
	caseEgPerPE   []int64
	caseEgUnion   []int64
	caseInPerPE   []TensorCounts
	caseInUnion   []TensorCounts

	// levelNodes/leafNodes size the pricing scratch.
	levelNodes int
	leafNodes  int
}

// Case flag bits.
const (
	caseFirst uint8 = 1 << iota // the level's very first step (serialized)
	caseFinal                   // departing tile fully reduced (commits at level 0)
)

// Spec returns the resolved dataflow the profile was built from.
func (p *LayerProfile) Spec() *dataflow.Spec { return p.spec }

// NumPEs returns the PE count the profile is bound to; Price rejects
// configurations with a different count.
func (p *LayerProfile) NumPEs() int { return p.spec.NumPEs }

// Nodes returns the number of memoized (level, sub-problem) nodes.
func (p *LayerProfile) Nodes() int { return len(p.nodeLevel) }

// Cases returns the total recorded data-iteration cases across nodes.
func (p *LayerProfile) Cases() int {
	if len(p.caseStart) == 0 {
		return 0
	}
	return int(p.caseStart[len(p.caseStart)-1])
}

// memoKey identifies a (cluster level, sub-problem) node. Edge chunks at
// outer levels shrink the sub-problem, so the same level is analyzed for
// the handful of distinct tile shapes that occur (the paper reports <20
// such edge sub-cases across levels, which holds here too).
type memoKey struct {
	level int
	dims  tensor.Sizes
}

// profNode is one memoized (level, sub-problem) node in the profiler's
// transient recording format; seal flattens the nodes and their cases
// into the LayerProfile arena once the walk completes. Leaves carry
// their MAC counts (fully hardware-independent); cluster levels carry
// their case count plus the final-flush quantities, and their cases sit
// in profiler.cases.
type profNode struct {
	level  int
	leaf   bool
	bufReq TensorCounts // double-buffered staging requirement at the node's buffer

	// Leaf fields.
	psums int64 // dense MACs of the tile
	eff   int64 // density-scaled effective MACs

	// Cluster-level fields.
	outputReduced bool
	ncases        int
	flushEgPerPE  int64
	flushEgUnion  int64
	flushActive   int64
}

// profCase records one data-iteration case of a cluster level. All
// element counts are density-scaled; the Output ingress entries already
// encode the partial-sum revisit decision (zero when the arriving tile
// carries no prior partials).
type profCase struct {
	occ    int64 // concrete steps this case covers
	active int64 // active sub-clusters on arrival
	first  bool  // the level's very first step (serialized, no overlap)
	final  bool  // departing tile is fully reduced (commits at level 0)

	child     int32 // node index of the steady sub-problem
	edgeChild int32 // node index of the spatially clipped PE, -1 if none

	inPerPE TensorCounts // per-PE ingress per tensor
	inUnion TensorCounts // union (deduplicated) ingress per tensor
	egPerPE int64        // per-PE egress (output slice displaced)
	egUnion int64        // union egress
}

// profiler walks one spec's cluster levels and records each node's case
// quantities for Price.
type profiler struct {
	spec  *dataflow.Spec
	layer tensor.Layer
	nlv   int
	memo  map[memoKey]int32
	nodes []profNode

	// cases holds the level nodes' cases in p.nodes order, each node's
	// contiguous. The walk is recursive — a case's children (and their
	// cases) are recorded mid-enumeration — so a node in progress pushes
	// its cases onto stack, above its ancestors' and below its
	// descendants', and moves them here once it completes.
	cases []profCase
	stack []profCase

	// lvs and as hold one resolved level and one reuse analysis per
	// cluster depth, re-resolved in place for every node of that depth:
	// a node's cases recurse only into depth+1, and a memo hit touches
	// no scratch, so a depth's entry stays intact until its node
	// completes.
	lvs []dataflow.Level
	as  []reuse.Analysis

	// Initial backing for nodes, cases and stack, sized for the zoo's
	// walks (at most 5 nodes and 21 cases under the Table 3 dataflows),
	// so a fresh profiler costs one allocation besides its memo and its
	// per-depth scratch.
	nodeBuf  [8]profNode
	caseBuf  [32]profCase
	stackBuf [32]profCase
}

// Profile runs the hardware-independent phase of the analysis on a
// resolved dataflow: one recursive cluster walk recording the memoized
// node DAG with per-case traffic quantities. The result prices against
// any hardware configuration with the spec's PE count via Price.
func Profile(spec *dataflow.Spec) (*LayerProfile, error) {
	p := profilerPool.Get().(*profiler)
	defer profilerPool.Put(p)
	p.reset(spec)
	if _, err := p.profile(0, spec.Layer.Sizes); err != nil {
		return nil, err
	}
	return p.seal(spec), nil
}

// profilerPool recycles the walk's transient recording (memo, nodes,
// cases and their stack) across Profile calls; only the sealed arena
// escapes a walk.
var profilerPool = sync.Pool{New: func() any {
	p := &profiler{memo: make(map[memoKey]int32)}
	p.nodes, p.cases, p.stack = p.nodeBuf[:0], p.caseBuf[:0], p.stackBuf[:0]
	return p
}}

// reset readies a pooled profiler for a walk over spec.
func (p *profiler) reset(spec *dataflow.Spec) {
	p.spec, p.layer, p.nlv = spec, spec.Layer, spec.NumLevels()
	clear(p.memo)
	p.nodes, p.cases, p.stack = p.nodes[:0], p.cases[:0], p.stack[:0]
	if len(p.lvs) < p.nlv {
		p.lvs = append(p.lvs, make([]dataflow.Level, p.nlv-len(p.lvs))...)
		p.as = append(p.as, make([]reuse.Analysis, p.nlv-len(p.as))...)
	}
}

// seal flattens the transient recording into the LayerProfile's
// struct-of-arrays arena. Arrays of the same element type share one
// exact-size backing allocation (full slice expressions keep an
// impossible append on one view from bleeding into its neighbor), so
// the whole DAG ends up in a handful of contiguous blocks the pricing
// sweep streams through in order.
func (p *profiler) seal(spec *dataflow.Spec) *LayerProfile {
	lp := &LayerProfile{spec: spec, nlv: p.nlv}
	nn := len(p.nodes)
	ncases := len(p.cases)
	for i := range p.nodes {
		if p.nodes[i].leaf {
			lp.leafNodes++
		} else {
			lp.levelNodes++
		}
	}
	ln, lf := lp.levelNodes, lp.leafNodes

	i32 := make([]int32, 3*nn+1+2*ncases)
	lp.nodeLevel, i32 = i32[:nn:nn], i32[nn:]
	lp.nodeSlot, i32 = i32[:nn:nn], i32[nn:]
	lp.caseStart, i32 = i32[:nn+1:nn+1], i32[nn+1:]
	lp.caseChild, i32 = i32[:ncases:ncases], i32[ncases:]
	lp.caseEdgeChild = i32[:ncases:ncases]

	i64 := make([]int64, 3*ln+2*lf+4*ncases)
	lp.flushEgPerPE, i64 = i64[:ln:ln], i64[ln:]
	lp.flushEgUnion, i64 = i64[:ln:ln], i64[ln:]
	lp.flushActive, i64 = i64[:ln:ln], i64[ln:]
	lp.leafPsums, i64 = i64[:lf:lf], i64[lf:]
	lp.leafEff, i64 = i64[:lf:lf], i64[lf:]
	lp.caseOcc, i64 = i64[:ncases:ncases], i64[ncases:]
	lp.caseActive, i64 = i64[:ncases:ncases], i64[ncases:]
	lp.caseEgPerPE, i64 = i64[:ncases:ncases], i64[ncases:]
	lp.caseEgUnion = i64[:ncases:ncases]

	tc := make([]TensorCounts, nn+2*ncases)
	lp.bufReq, tc = tc[:nn:nn], tc[nn:]
	lp.caseInPerPE, tc = tc[:ncases:ncases], tc[ncases:]
	lp.caseInUnion = tc[:ncases:ncases]

	lp.outputReduced = make([]bool, ln)
	lp.caseFlags = make([]uint8, ncases)

	nextLevel, nextLeaf, nextCase := int32(0), int32(0), 0
	for i := range p.nodes {
		n := &p.nodes[i]
		lp.nodeLevel[i] = int32(n.level)
		lp.caseStart[i] = int32(nextCase)
		lp.bufReq[i] = n.bufReq
		if n.leaf {
			s := nextLeaf
			nextLeaf++
			lp.nodeSlot[i] = s
			lp.leafPsums[s] = n.psums
			lp.leafEff[s] = n.eff
			continue
		}
		s := nextLevel
		nextLevel++
		lp.nodeSlot[i] = s
		lp.outputReduced[s] = n.outputReduced
		lp.flushEgPerPE[s] = n.flushEgPerPE
		lp.flushEgUnion[s] = n.flushEgUnion
		lp.flushActive[s] = n.flushActive
		for range n.ncases {
			j := nextCase
			cs := &p.cases[j]
			nextCase++
			lp.caseOcc[j] = cs.occ
			lp.caseActive[j] = cs.active
			if cs.first {
				lp.caseFlags[j] |= caseFirst
			}
			if cs.final {
				lp.caseFlags[j] |= caseFinal
			}
			lp.caseChild[j] = cs.child
			lp.caseEdgeChild[j] = cs.edgeChild
			lp.caseEgPerPE[j] = cs.egPerPE
			lp.caseEgUnion[j] = cs.egUnion
			lp.caseInPerPE[j] = cs.inPerPE
			lp.caseInUnion[j] = cs.inUnion
		}
	}
	lp.caseStart[nn] = int32(nextCase)
	return lp
}

// ProfileCtx is Profile wrapped in a "core.profile" span when ctx
// carries an obs recorder; with tracing off it costs two context
// lookups over Profile.
func ProfileCtx(ctx context.Context, spec *dataflow.Spec) (*LayerProfile, error) {
	_, span := obs.Start(ctx, "core.profile",
		obs.String("dataflow", spec.Dataflow.Name),
		obs.String("layer", spec.Layer.Name),
		obs.Int("pes", spec.NumPEs))
	lp, err := Profile(spec)
	if err == nil {
		span.SetAttr(obs.Int("nodes", lp.Nodes()), obs.Int("cases", lp.Cases()))
	}
	span.End()
	return lp, err
}

// profile records one (level, dims) node, memoized, and returns its
// index. Children are recorded before their parent is appended, so
// p.nodes stays topologically sorted.
func (p *profiler) profile(level int, dims tensor.Sizes) (int32, error) {
	key := memoKey{level, dims}
	if idx, ok := p.memo[key]; ok {
		return idx, nil
	}
	var n profNode
	var err error
	if level == p.nlv {
		n = p.profileLeaf(dims)
	} else {
		n, err = p.profileLevel(level, dims)
	}
	if err != nil {
		return 0, err
	}
	idx := int32(len(p.nodes))
	p.nodes = append(p.nodes, n)
	p.memo[key] = idx
	return idx, nil
}

// profileLeaf records one PE tile: its dense and effective MACs and
// the double-buffered L1 requirement of its three tensors. The PE's ALU
// performs the effective MACs, reading both operands and reading and
// writing the accumulator in its L1 scratchpad; Price charges that
// activity from eff.
func (p *profiler) profileLeaf(dims tensor.Sizes) profNode {
	psums := psumsFor(p.layer, dims)
	n := profNode{
		level: p.nlv, leaf: true, psums: psums,
		eff: scaleCount(psums, p.layer.Density[tensor.Input]*weightDensity(p.layer)),
	}
	for _, k := range tensor.AllKinds() {
		n.bufReq[k] = 2 * scaleCount(tileForDims(p.layer, dims, k), p.layer.Density[k])
	}
	return n
}

// profileLevel enumerates the data-iteration cases of one cluster level
// — the very first step, plus, for every multi-step loop, the steps at
// which that loop advances, crossed with first/steady/edge classes of
// the loops outside it (Figure 8's ExtractDataIterationCases) — and
// records the raw per-PE/union quantities each case's pricing needs.
func (p *profiler) profileLevel(level int, dims tensor.Sizes) (profNode, error) {
	lv, a := &p.lvs[level], &p.as[level]
	if err := p.spec.LevelInto(lv, level, dims); err != nil {
		return profNode{}, err
	}
	a.Reset(lv, p.layer)
	loops := a.Loops
	nloops := len(loops)

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

	n := profNode{level: level, outputReduced: a.OutputReduced()}
	base := len(p.stack)

	var edgeBuf, oldEdgeBuf [maxLoops]bool
	edges, oldEdges := edgeBuf[:nloops], oldEdgeBuf[:nloops]
	// The staging requirement depends only on a case's chunks and active
	// sub-clusters, which consecutive cases mostly share.
	reqCh, reqActive := tensor.Sizes{}, -1

	// record records one data-iteration case. adv == -1 is the level's
	// first step; otherwise loop adv advances with the loops inside it
	// reset and the loops outside it at the classes in cls.
	record := func(adv int, cls []loopClass, occ int64) error {
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
		}

		ch := a.Chunks(edges, false)
		hasEdgePE := spatialEdge && foldLast && active > 1
		child, err := p.profile(level+1, a.ChildDims(ch))
		if err != nil {
			return err
		}
		edgeChild := int32(-1)
		if hasEdgePE {
			edgeChild, err = p.profile(level+1, a.ChildDims(a.Chunks(edges, true)))
			if err != nil {
				return err
			}
		}
		// The case is recorded in place: the children are done, so
		// nothing else pushes onto the stack until it is filled.
		p.stack = append(p.stack, profCase{
			occ: occ, active: int64(active), first: adv == -1,
			child: child, edgeChild: edgeChild,
		})
		cs := &p.stack[len(p.stack)-1]

		// Ingress quantities, with the partial-sum revisit decision for
		// outputs resolved here (it depends only on the case structure).
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
			d := p.layer.Density[k]
			cs.inPerPE[k] = scaleCount(perPE, d)
			cs.inUnion[k] = scaleCount(union, d)
		}

		// Egress quantities: the output slice the previous tile leaves
		// behind, under the previous step's chunk selection.
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
			d := p.layer.Density[tensor.Output]
			egPerPE, egUnion := a.NewData(tensor.Output, adv, chOld, oldActive)
			cs.egPerPE, cs.egUnion = scaleCount(egPerPE, d), scaleCount(egUnion, d)
			cs.final = a.Affects(tensor.Output, adv) && redAllLast
		}

		// This level's parent stages the union tile, double buffered.
		if ch != reqCh || active != reqActive {
			reqCh, reqActive = ch, active
			for _, k := range tensor.AllKinds() {
				n.bufReq[k] = max(n.bufReq[k], 2*scaleCount(a.UnionTile(k, ch, active), p.layer.Density[k]))
			}
		}
		return nil
	}

	en := newCaseEnum(a)
	for en.next() {
		if err := record(en.adv, en.classes(), en.occ); err != nil {
			return profNode{}, err
		}
	}
	n.ncases = len(p.stack) - base
	p.cases = append(p.cases, p.stack[base:]...)
	p.stack = p.stack[:base]

	// Final flush: every loop at its final index, the last fold active.
	for i, lp := range loops {
		edges[i] = !lp.IsFold && lp.Map.HasEdge()
	}
	active := lv.LastFoldActive
	if len(lv.Spatial) == 0 {
		active = 1
	}
	chF := a.Chunks(edges, false)
	d := p.layer.Density[tensor.Output]
	n.flushEgPerPE = scaleCount(a.TileOf(tensor.Output, chF), d)
	n.flushEgUnion = scaleCount(a.UnionTile(tensor.Output, chF, active), d)
	n.flushActive = int64(active)
	return n, nil
}
