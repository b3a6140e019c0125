package netsched

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// FuseOptions configures the graph-level scheduler.
type FuseOptions struct {
	Options
	// MaxGroupLayers bounds a fusion subgraph's layer count (default 8).
	MaxGroupLayers int
}

// MemberPlan is one layer of a fusion group with its chosen mapping.
type MemberPlan struct {
	Index    int
	Inst     models.LayerInst
	Dataflow dataflow.Dataflow
	Result   *core.Result
}

// GroupPlan is one fusion subgraph of a fused schedule: a contiguous
// interval [Lo, Hi] of the (topologically ordered) layer list executed
// as a unit. A fused group streams tile bands through L2: external
// activations cross DRAM once, intermediates never do, and each member
// whose output escapes the group writes it once. An unfused (singleton)
// group is priced exactly by the per-layer engine.
type GroupPlan struct {
	Lo, Hi int // inclusive layer interval
	Fused  bool
	Count  int // instances (equal across members of a fused group)

	// TileRows is the terminal-band height in output rows; Bands the
	// number of bands covering the writers' output. Zero when unfused.
	TileRows, Bands int
	// WeightsResident reports whether the group's weights stay in L2
	// across all bands (read from DRAM once) or stream in per band.
	WeightsResident bool

	// Externals lists the distinct external tensors the group reads:
	// a producer layer index < Lo, or -(member+1) for a member that
	// reads the model input.
	Externals []int

	// Claimed off-chip element transfers per instance. For fused groups
	// DRAMReads = ActReads + WeightReads and DRAMWrites = ActWrites; for
	// singletons the engine totals are authoritative and the act/weight
	// split is derived from the same retention decision.
	ActReads, WeightReads, ActWrites int64
	DRAMReads, DRAMWrites            int64

	// RetainedBytes is the L2 held by intermediate and external input
	// windows between fused stages; L2PeakBytes the full footprint
	// (windows + resident weights + staging + output bands) the
	// capacity check admitted.
	RetainedBytes, L2PeakBytes int64

	// Cycles is the group's on-chip runtime over all instances.
	Cycles int64

	Members []MemberPlan
}

// Writers returns the member indices whose output leaves the group
// (consumed beyond Hi, or not consumed at all).
func (gp *GroupPlan) Writers(g *Graph) []int {
	var w []int
	for i := gp.Lo; i <= gp.Hi; i++ {
		if writesOut(g, i, gp.Hi) {
			w = append(w, i)
		}
	}
	return w
}

func writesOut(g *Graph, i, hi int) bool {
	return g.geo[i].lastOut > hi
}

// fusibleOp reports whether the streaming contract covers the operator:
// windowed spatial operators compose row bands; FC/GEMM and transposed
// convolutions do not.
func fusibleOp(op tensor.OpType) bool {
	switch op {
	case tensor.Conv2D, tensor.PointwiseConv, tensor.DepthwiseConv, tensor.Pooling:
		return true
	}
	return false
}

// checkFusible validates the fusion legality of interval [lo, hi]:
//
//   - every member is fusible (layerGeom.fusible: a windowed-spatial
//     operator whose input channels equal the summed output channels of
//     its producers, the concat contract);
//   - all members repeat the same instance Count;
//   - every member past the first is connected: an in-group producer, or
//     an external producer tensor shared with an earlier member (the
//     inception branch heads);
//   - in-group edges are spatially composable: the consumer's input rows
//     exceed the producer's output rows by at most R-1 (padding slack),
//     and never fall short (no cropping); same for columns;
//   - every writer shares the same output height and width, so one band
//     index drives all of them.
func checkFusible(g *Graph, lo, hi int) bool {
	count := g.geo[lo].count
	var wOutY, wOutX int
	for v := lo; v <= hi; v++ {
		lg := &g.geo[v]
		if !lg.fusible || lg.count != count || lg.badIn >= lo {
			return false
		}
		if v != lo && lg.maxIn < lo && !sharesInput(g, v, lo) {
			// No in-group producer and no external tensor shared with an
			// earlier member (a root inside the group reads its own model
			// input, which it shares with no one).
			return false
		}
		if lg.lastOut > hi {
			if wOutY == 0 {
				wOutY, wOutX = lg.outY, lg.outX
			} else if lg.outY != wOutY || lg.outX != wOutX {
				return false
			}
		}
	}
	return true
}

// sharesInput reports whether member v of a group starting at lo reads
// an external producer that an earlier member also reads.
func sharesInput(g *Graph, v, lo int) bool {
	for _, p := range g.Ins[v] {
		if p >= lo {
			break
		}
		for _, c := range g.Outs[p] {
			if c >= v {
				break
			}
			if c >= lo {
				return true
			}
		}
	}
	return false
}

// groupCost is one interval's evaluated plan.
type groupCost struct {
	feasible bool
	fused    bool
	tile     int
	bands    int
	// weightsResident: the group's weights stay in L2 across all bands
	// and cross DRAM once; otherwise they stream in again per band.
	weightsResident bool
	// msMembers: the members run their minimal-staging fallback mappings
	// because the compact re-tunes did not fit beside the band windows.
	msMembers bool

	actR, wR, actW int64 // per instance
	readsPI        int64 // per instance, total
	writesPI       int64

	retained, peak int64
	cost           int64 // (reads+writes) x count — the DP objective
}

// extTensor is one distinct external tensor an interval reads: a
// producer layer index, or -(member+1) for a member reading the model
// input (each root reads its own input tensor).
type extTensor struct {
	key     int
	rowEl   int64
	density float64
	limit   int // rows the tensor has
	// rows is the most rows any member reads: of the whole output for
	// the claims, of one band for the footprint.
	rows int
}

// extRead is one member's read of an external tensor.
type extRead struct {
	member, ext int
}

// loadExternals lists the external tensors of [lo, hi] in first-read
// order into f.exts, and every member's read of one into f.reads.
func (f *fuser) loadExternals(lo, hi int) {
	g := f.g
	f.exts, f.reads = f.exts[:0], f.reads[:0]
	for v := lo; v <= hi; v++ {
		if len(g.Ins[v]) == 0 {
			lg := &g.geo[v]
			f.reads = append(f.reads, extRead{v, len(f.exts)})
			f.exts = append(f.exts, extTensor{key: -(v + 1), rowEl: lg.inRowEl, density: lg.inDensity, limit: lg.inLimit})
			continue
		}
	producers:
		for _, p := range g.Ins[v] {
			if p >= lo {
				break
			}
			for e := range f.exts {
				if f.exts[e].key == p {
					f.reads = append(f.reads, extRead{v, e})
					continue producers
				}
			}
			lp := &g.geo[p]
			f.reads = append(f.reads, extRead{v, len(f.exts)})
			f.exts = append(f.exts, extTensor{key: p, rowEl: lp.outRowEl, density: lp.outDensity, limit: lp.outY})
		}
	}
}

// externals returns the keys of the interval's external tensors.
func (f *fuser) externals(lo, hi int) []int {
	f.loadExternals(lo, hi)
	keys := make([]int, len(f.exts))
	for i, e := range f.exts {
		keys[i] = e.key
	}
	return keys
}

// fusedClaims prices a legal fused interval under the streaming
// contract: every distinct external activation tensor is read once —
// only the rows the group's consumers actually touch, which matters
// when a producer beyond an (elided) downsampling boundary emits more
// rows than the group reads — every member's weights are read once,
// every writer's output is written once, and intermediates never touch
// DRAM. It reads the externals loadExternals listed.
func (f *fuser) fusedClaims(lo, hi int) (actR, wR, actW int64) {
	geo := f.g.geo
	for v := lo; v <= hi; v++ {
		wR += geo[v].wElems
		if geo[v].lastOut > hi {
			actW += geo[v].outElems
		}
	}
	for i := range f.exts {
		f.exts[i].rows = 0
	}
	for _, rd := range f.reads {
		e := &f.exts[rd.ext]
		e.rows = max(e.rows, geo[rd.member].fullIn)
	}
	for _, e := range f.exts {
		actR += scaleRows(min(e.rows, e.limit), e.rowEl, e.density)
	}
	return actR, wR, actW
}

// needOutRows computes, backward over the interval, how many output rows
// each member must produce so that every writer emits tileRows rows
// (clamped to each member's output height). Index i of the returned
// slice (f.need, reused across calls) is member lo+i.
func (f *fuser) needOutRows(lo, hi, tileRows int) []int {
	g := f.g
	need := f.need[:hi-lo+1]
	for v := hi; v >= lo; v-- {
		lg := &g.geo[v]
		rows := 0
		if lg.lastOut > hi {
			rows = min(tileRows, lg.outY)
		}
		for _, c := range g.Outs[v] {
			if c > hi {
				break
			}
			rows = max(rows, min(g.geo[c].inRows(need[c-lo]), lg.outY))
		}
		need[v-lo] = rows
	}
	return need
}

// footprint returns the L2 bytes a fused interval needs at band height
// tileRows, split into the parts the group-level scheduler trades off:
// the sliding windows of intermediates and external inputs (the
// retained tensors — exactly the rows one band needs, since a window
// both fills and drains within its band) and one output band per
// writer. The resident weights do not depend on the band height, and
// member staging depends on which mapping the members run
// (stagingBytes), so both are priced by the caller. It reads the
// externals loadExternals listed.
func (f *fuser) footprint(lo, hi, tileRows int) (retained, outBands int64) {
	geo, eb := f.g.geo, f.eb
	need := f.needOutRows(lo, hi, tileRows)
	for v := lo; v <= hi; v++ {
		lg := &geo[v]
		if lg.lastOut > hi {
			outBands += int64(min(tileRows, lg.outY)) * lg.outRowEl * eb
		} else {
			retained += int64(need[v-lo]) * lg.outRowEl * eb
		}
	}
	for i := range f.exts {
		f.exts[i].rows = 0
	}
	for _, rd := range f.reads {
		e := &f.exts[rd.ext]
		e.rows = max(e.rows, geo[rd.member].inRows(need[rd.member-lo]))
	}
	for _, e := range f.exts {
		retained += int64(min(e.rows, e.limit)) * e.rowEl * eb
	}
	return retained, outBands
}

// stagingBytes returns the widest member staging requirement under the
// two mapping flavors a fused group may run: the compact re-tune (best
// runtime under a quarter of the budget) and the minimal-staging
// fallback (budget-independent, which keeps the feasible set growing
// with L2Bytes).
func (f *fuser) stagingBytes(lo, hi int) (compact, ms int64) {
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

// fuser evaluates interval costs for the DP partitioner. One fuser
// serves every granularity cap of a budget: the per-layer mappings,
// re-tunes and singleton costs are built once, and with more than one
// cap every interval is priced once into memo.
type fuser struct {
	g    *Graph
	cfg  hw.Config
	eb   int64
	opt  Options
	base []mapping
	// compact caches low-staging re-tunes for fused members; ms the
	// budget-independent minimal-staging fallbacks. An entry with a nil
	// result is not built yet.
	compact []mapping
	ms      []mapping
	// single holds every layer's singleton cost.
	single []groupCost
	// memo, when set, holds the cost of interval [lo, hi] at
	// hi*width + hi-lo, for every interval of at most width layers.
	memo  []groupCost
	width int

	// Scratch reused across interval evaluations: the current
	// interval's external tensors and their reads, the per-member band
	// rows, and the last unmemoized cost.
	exts    []extTensor
	reads   []extRead
	need    []int
	scratch groupCost
}

// mapping is one layer's mapping as a schedule runs it: the priced
// result, its dataflow, and its on-chip energy, priced once for every
// cap of the budget.
type mapping struct {
	r        *core.Result
	df       dataflow.Dataflow
	onChipPJ float64
}

func newMapping(r *core.Result, df dataflow.Dataflow) mapping {
	return mapping{r: r, df: df, onChipPJ: r.EnergyDefault().OnChip()}
}

// compactMapping returns the mapping a layer runs inside a fused group.
// Tuned schedules re-tune each member with staging capped at a quarter
// of the L2 budget — the band windows and weights need the rest, and
// the tuner's unconstrained pick happily stages half the scratchpad.
// Fixed-dataflow schedules keep their mapping, as does any layer the
// capped re-tune cannot map.
func (f *fuser) compactMapping(i int) *mapping {
	if f.opt.Dataflow != nil {
		return &f.base[i]
	}
	if f.compact == nil {
		f.compact = make([]mapping, len(f.base))
	}
	if f.compact[i].r != nil {
		return &f.compact[i]
	}
	budget := f.opt.L2Bytes / 4
	if budget < 4<<10 {
		budget = 4 << 10
	}
	ch, err := tuner.TuneLayer(f.g.Model.Layers[i].Layer, f.cfg, tuner.Options{
		Objective:  f.opt.Objective,
		MaxL2Bytes: budget,
	})
	if err != nil {
		f.compact[i] = f.base[i]
	} else {
		f.compact[i] = newMapping(ch.Result, ch.Dataflow)
	}
	return &f.compact[i]
}

// msMapping returns the budget-independent minimal-staging mapping for
// a fused member: the best mapping under the smallest power-of-two
// staging cap that admits one. Because it never consults L2Bytes, an
// interval feasible through it at some budget stays feasible at every
// larger budget — the keystone of the schedule's L2 monotonicity.
func (f *fuser) msMapping(i int) *mapping {
	if f.opt.Dataflow != nil {
		return &f.base[i]
	}
	if f.ms == nil {
		f.ms = make([]mapping, len(f.base))
	}
	if f.ms[i].r != nil {
		return &f.ms[i]
	}
	for limit := int64(4 << 10); ; limit *= 2 {
		ch, err := tuner.TuneLayer(f.g.Model.Layers[i].Layer, f.cfg, tuner.Options{
			Objective:  f.opt.Objective,
			MaxL2Bytes: limit,
		})
		if err == nil {
			f.ms[i] = newMapping(ch.Result, ch.Dataflow)
			break
		}
		if limit > 1<<30 {
			f.ms[i] = f.base[i]
			break
		}
	}
	return &f.ms[i]
}

// singletonCost prices layer i as its own group: the per-layer engine's
// DRAM traffic, split by tensor, at the schedule's L2 budget. With a
// positive budget the claim is clamped to the spill (pure-streaming)
// traffic — more capacity can always fall back to streaming, so a
// singleton's claim is non-increasing in L2Bytes. The L2Bytes=0
// sentinel keeps the per-layer engine's own totals bit for bit.
func (f *fuser) singletonCost(i int) groupCost {
	r := f.base[i].r
	reads, writes := r.DRAMTensorReads, r.DRAMWrites
	if f.opt.L2Bytes != 0 {
		at := r.AtL2(f.opt.L2Bytes)
		reads, writes = at.DRAMTensorReads, at.DRAMWrites
		spill := core.TensorCounts{
			tensor.Input:  r.BufRead[0][tensor.Input],
			tensor.Weight: r.BufRead[0][tensor.Weight],
		}
		if sw := r.BufWrite[0][tensor.Output]; spill.Sum()+sw < reads.Sum()+writes {
			reads, writes = spill, sw
		}
	}
	count := int64(f.g.Model.Layers[i].Count)
	return groupCost{
		feasible: true,
		actR:     reads[tensor.Input] + reads[tensor.Output],
		wR:       reads[tensor.Weight],
		actW:     writes,
		readsPI:  reads.Sum(),
		writesPI: writes,
		cost:     (reads.Sum() + writes) * count,
	}
}

// intervalCost prices interval [lo, hi]; hi > lo means a fused group,
// infeasible when illegal or when no band height fits in L2. Among the
// feasible (band height, weight residency) variants the cheapest claim
// wins, fewest bands on ties.
//
// The band heights are tried largest first (the writers' full output
// height, halved down to one row), each weight-resident before
// streaming, and the search stops at the first feasible resident
// variant. Nothing after it can win: a resident claim does not depend
// on the band height, a streaming claim re-reads the weights once per
// band so it is never below the resident one, and smaller bands never
// mean fewer of them. Every later variant therefore costs at least as
// much as that resident one with at least as many bands, so it cannot
// beat the best found so far, which is no worse on either count.
func (f *fuser) intervalCost(lo, hi int) groupCost {
	if lo == hi {
		return f.single[lo]
	}
	if f.opt.L2Bytes <= 0 || !checkFusible(f.g, lo, hi) {
		return groupCost{}
	}
	var wOutY int
	for v := lo; v <= hi; v++ {
		if writesOut(f.g, v, hi) {
			wOutY = f.g.geo[v].outY
			break
		}
	}
	f.loadExternals(lo, hi)
	actR, wElems, actW := f.fusedClaims(lo, hi)
	weights := wElems * f.eb
	count := int64(f.g.geo[lo].count)
	stC, stMS := f.stagingBytes(lo, hi)
	var best groupCost
	for t, last := wOutY, false; !last; t = (t + 1) / 2 {
		if t <= 1 {
			t, last = 1, true
		}
		retained, outBands := f.footprint(lo, hi, t)
		base := retained + outBands
		bands := (wOutY + t - 1) / t
		for _, resident := range [2]bool{true, false} {
			peak, wR := base, wElems
			if resident {
				peak += weights
			} else {
				wR = wElems * int64(bands)
			}
			// Prefer the compact mappings; fall back to the minimal-
			// staging ones when they do not fit beside the windows.
			staging, msUsed := stC, false
			if peak+staging > f.opt.L2Bytes {
				staging, msUsed = stMS, true
			}
			peak += staging
			if peak > f.opt.L2Bytes {
				continue
			}
			cost := (actR + wR + actW) * count
			if !best.feasible || cost < best.cost || (cost == best.cost && bands < best.bands) {
				best = groupCost{
					feasible: true, fused: true,
					tile: t, bands: bands, weightsResident: resident,
					msMembers: msUsed,
					actR:      actR, wR: wR, actW: actW,
					readsPI: actR + wR, writesPI: actW,
					retained: retained, peak: peak,
					cost: cost,
				}
			}
			if resident {
				return best
			}
		}
	}
	return best
}

// cost returns interval [lo, hi]'s cost: from the memo table when the
// fuser serves several caps, else freshly priced into f.scratch.
func (f *fuser) cost(lo, hi int) *groupCost {
	if f.memo != nil {
		return &f.memo[hi*f.width+hi-lo]
	}
	f.scratch = f.intervalCost(lo, hi)
	return &f.scratch
}

// fillMemo prices every interval of at most width layers once.
func (f *fuser) fillMemo(width int) {
	n := len(f.g.geo)
	f.width = width
	f.memo = make([]groupCost, n*width)
	for hi := 0; hi < n; hi++ {
		for lo := hi; lo >= 0 && hi-lo < width; lo-- {
			f.memo[hi*width+hi-lo] = f.intervalCost(lo, hi)
		}
	}
}

// partitionDAG finds the contiguous partition of the layer list into
// groups of at most maxLen layers that minimizes total claimed DRAM
// traffic by interval DP. Because a fused interval's claim is
// independent of L2Bytes while its feasible set only grows with it, and
// singleton claims are non-increasing in L2Bytes, the optimum is
// monotonically non-increasing in L2Bytes.
func partitionDAG(f *fuser, maxLen int) []groupSpan {
	n := len(f.g.geo)
	const inf = int64(1) << 62
	dp := make([]int64, n+1)
	choice := make([]int, n+1)
	costs := make([]groupCost, n+1)
	for j := 1; j <= n; j++ {
		dp[j] = inf
		for i := max(0, j-maxLen); i < j; i++ {
			c := f.cost(i, j-1)
			if !c.feasible || dp[i] >= inf {
				continue
			}
			if dp[i]+c.cost < dp[j] {
				dp[j] = dp[i] + c.cost
				choice[j] = i
				costs[j] = *c
			}
		}
	}
	var spans []groupSpan
	for j := n; j > 0; j = choice[j] {
		spans = append(spans, groupSpan{lo: choice[j], hi: j - 1, cost: costs[j]})
	}
	// Reverse into layer order.
	for l, r := 0, len(spans)-1; l < r; l, r = l+1, r-1 {
		spans[l], spans[r] = spans[r], spans[l]
	}
	return spans
}

type groupSpan struct {
	lo, hi int
	cost   groupCost
}
