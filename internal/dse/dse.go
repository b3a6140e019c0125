// Package dse is the hardware design-space exploration tool of the
// paper's Section 5.2: driven by MAESTRO, it sweeps the number of PEs,
// scratchpad capacities (via the dataflow's tile-size knobs — "the DSE
// tool places the exact amount buffers MAESTRO reported"), and NoC
// bandwidth under area and power constraints, and reports
// throughput-, energy- and EDP-optimized design points plus the Pareto
// frontier (Figure 13).
//
// The tool reproduces the paper's skip-invalid optimization: before
// descending into the inner parameter loops it bounds the minimum area
// and power any inner point could have and skips the whole sub-space
// arithmetically, which is what makes the effective exploration rate
// orders of magnitude higher than the MAESTRO invocation rate.
package dse

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Template builds a dataflow for a pair of tile-size knobs.
type Template struct {
	Name   string
	Build  func(p1, p2 int) dataflow.Dataflow
	P1, P2 []int // knob value sweeps
}

// Space is the search space of one DSE run.
type Space struct {
	Layer    tensor.Layer
	Template Template
	// PEs and BWs are the hardware axes (elements/cycle for bandwidth),
	// each in any order.
	PEs []int
	BWs []float64
	// L1Steps/L2Steps count the buffer-capacity grid the raw space spans:
	// for every mapping the buffers are placed at the exact requirement,
	// and all grid capacities >= the requirement (within budget) are
	// valid-by-dominance and counted arithmetically instead of evaluated.
	L1Grid []int64
	L2Grid []int64

	AreaBudgetMM2 float64
	PowerBudgetMW float64
	Cost          hw.CostModel
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Profiles, when set, fetches the per-(dataflow, layer, PEs) profiles
	// through a shared cache so repeated runs over the same mappings
	// (e.g. the analysis service) skip the cluster walk entirely. When
	// nil every mapping is profiled fresh, keeping Stats.Invoked
	// deterministic for benchmarks.
	Profiles *core.ProfileCache
	// Ctx carries observability: when an obs recorder is attached
	// (obs.WithRecorder) a sweep emits a "dse.explore" span with one
	// "dse.mapping" child per (PEs, P1, P2) point, each containing its
	// profile span and a single "core.price_batch" span covering the
	// whole bandwidth axis. Nil means Background.
	Ctx context.Context
	// Progress, when non-nil, receives the run's Stats so far,
	// periodically from a single reporter goroutine (so the callback
	// never runs concurrently with itself), plus once on completion.
	Progress func(Stats)
	// ProgressEvery is the reporting interval (default 1s).
	ProgressEvery time.Duration
}

// Point is one valid design. The JSON names are the /v1/dse wire's.
type Point struct {
	NumPEs  int     `json:"num_pes"`
	BW      float64 `json:"bw"` // elements/cycle
	P1      int     `json:"p1"`
	P2      int     `json:"p2"`
	L1Bytes int64   `json:"l1_bytes"` // per-PE scratchpad, as required by the mapping
	L2Bytes int64   `json:"l2_bytes"`

	AreaMM2    float64 `json:"area_mm2"`
	PowerMW    float64 `json:"power_mw"`
	Runtime    int64   `json:"runtime_cycles"`
	Throughput float64 `json:"throughput_macs_per_cycle"` // MACs/cycle
	EnergyPJ   float64 `json:"energy_pj"`                 // on-chip energy for the layer
	EDP        float64 `json:"edp"`
}

// Stats summarizes one exploration run (the paper's Figure 13(c)).
type Stats struct {
	Raw      int64 // full parameter grid including buffer axes
	Explored int64 // grid points covered (evaluated or bulk-skipped)
	Invoked  int64 // cluster walks actually performed (profiles built)
	Priced   int64 // hardware points priced against those profiles
	Valid    int64 // valid design points found
	Elapsed  time.Duration
}

// Rate returns explored designs per second.
func (s Stats) Rate() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Explored) / s.Elapsed.Seconds()
}

// DefaultGrid builds a geometric capacity grid between lo and hi bytes.
// Degenerate inputs — a non-positive lower bound, an inverted range, or
// a ratio <= 1 (which would never advance the loop) — yield nil.
func DefaultGrid(lo, hi int64, step float64) []int64 {
	if lo < 1 || hi < lo || step <= 1 {
		return nil
	}
	var g []int64
	for v := float64(lo); v <= float64(hi); v *= step {
		g = append(g, int64(v))
	}
	return g
}

// exploreCounters are the live run counters: workers update them as
// they go so the progress reporter can snapshot a consistent-enough
// view mid-flight, and the final Stats reads them after the barrier.
type exploreCounters struct {
	explored atomic.Int64
	invoked  atomic.Int64
	priced   atomic.Int64
	valid    atomic.Int64
}

func (c *exploreCounters) stats(raw int64, start time.Time) Stats {
	return Stats{
		Raw:      raw,
		Explored: c.explored.Load(),
		Invoked:  c.invoked.Load(),
		Priced:   c.priced.Load(),
		Valid:    c.valid.Load(),
		Elapsed:  time.Since(start),
	}
}

// Explore sweeps the space and returns every valid design point, in no
// particular order. Each worker collects its points in a buffer reused
// across calls, and the result is one slice allocated at its final
// size.
func Explore(sp Space) ([]Point, Stats) {
	parts, stats := sweep(sp, func(buf **[]Point, p Point) {
		if *buf == nil {
			*buf = pointBufs.Get().(*[]Point)
		}
		**buf = append(**buf, p)
	})
	n := 0
	for _, buf := range parts {
		if buf != nil {
			n += len(*buf)
		}
	}
	var pts []Point
	if n > 0 {
		pts = make([]Point, 0, n)
	}
	for _, buf := range parts {
		if buf != nil {
			pts = append(pts, *buf...)
			*buf = (*buf)[:0]
			pointBufs.Put(buf)
		}
	}
	return pts, stats
}

// pointBufs recycles Explore's per-worker point buffers.
var pointBufs = sync.Pool{New: func() any { return new([]Point) }}

// Summarize sweeps the space and folds the points as they are found,
// each worker into its own Summary, then merges the workers. It keeps
// the optima and the front, not every point.
func Summarize(sp Space) Summary {
	parts, stats := sweep(sp, (*Summary).Add)
	s := Summary{Stats: stats}
	for _, part := range parts {
		s.Merge(part)
	}
	return s
}

// sweepPlan is what a sweep computes once and every PE job reads.
type sweepPlan struct {
	Space
	raw            int64 // the full parameter grid, buffer axes included
	gridPerMapping int64 // buffer-capacity grid points per (PEs, BW, P1, P2)
	// narrowest is the bandwidth axis minimum: area and power grow with
	// bandwidth, so a design over budget there is over budget at every
	// bandwidth.
	narrowest float64
	dfs       []dataflow.Dataflow // Template.Build(p1, p2), P1-major
	l1Sorted  []int64             // L1Grid in ascending order, duplicates kept
}

// newSweepPlan sizes the sweep and builds the template's dataflows. An
// empty axis spans no design, so it leaves nothing to explore (and no
// bandwidth minimum to bound with).
func newSweepPlan(sp Space) *sweepPlan {
	pl := &sweepPlan{Space: sp, gridPerMapping: int64(len(sp.L1Grid)) * int64(len(sp.L2Grid))}
	if pl.gridPerMapping == 0 {
		pl.gridPerMapping = 1
	}
	pl.raw = int64(len(sp.PEs)) * int64(len(sp.BWs)) *
		int64(len(sp.Template.P1)) * int64(len(sp.Template.P2)) * pl.gridPerMapping
	if pl.raw == 0 {
		return pl
	}
	pl.narrowest = slices.Min(sp.BWs)
	pl.l1Sorted = slices.Clone(sp.L1Grid)
	slices.Sort(pl.l1Sorted)
	for _, p1 := range sp.Template.P1 {
		for _, p2 := range sp.Template.P2 {
			pl.dfs = append(pl.dfs, sp.Template.Build(p1, p2))
		}
	}
	return pl
}

// sweep is the one walk behind Explore and Summarize: workers claim PE
// counts from one atomic index and fold each valid point into their own
// part with add. The caller's goroutine is worker 0, so a one-worker
// sweep starts no goroutine. It returns one part per worker and the
// run's Stats.
func sweep[T any](sp Space, add func(*T, Point)) ([]T, Stats) {
	start := time.Now()
	pl := newSweepPlan(sp)
	raw := pl.raw

	ctx := sp.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "dse.explore",
		obs.String("template", sp.Template.Name),
		obs.String("layer", sp.Layer.Name),
		obs.Int64("raw_designs", raw))

	workers := sp.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var c exploreCounters
	var reporterDone chan struct{}
	stopReporter := make(chan struct{})
	if sp.Progress != nil {
		every := sp.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		reporterDone = make(chan struct{})
		go func() {
			defer close(reporterDone)
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					sp.Progress(c.stats(raw, start))
				case <-stopReporter:
					sp.Progress(c.stats(raw, start))
					return
				}
			}
		}()
	}

	parts := make([]T, workers)
	var next atomic.Int64
	work := func(w int) {
		var part T
		emit := func(p Point) { add(&part, p) }
		// A mapping's L2 candidates are its requirement and at most
		// every grid capacity.
		cands := make([]l2Cand, 0, len(sp.L2Grid)+1)
		for i := next.Add(1) - 1; i < int64(len(sp.PEs)); i = next.Add(1) - 1 {
			cands = pl.explorePEs(ctx, sp.PEs[i], cands, emit, &c)
		}
		parts[w] = part
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	close(stopReporter)
	if reporterDone != nil {
		<-reporterDone
	}
	stats := c.stats(raw, start)
	span.SetAttr(
		obs.Int64("explored", stats.Explored),
		obs.Int64("invoked", stats.Invoked),
		obs.Int64("priced", stats.Priced),
		obs.Int64("valid", stats.Valid))
	span.End()
	return parts, stats
}

// l2Cand is one shared-scratchpad capacity of a mapping, priced once
// for the whole bandwidth axis: the NoC sets delays, never traffic, so
// the DRAM traffic, its delay and the dynamic energy at a capacity are
// the same at every bandwidth point.
type l2Cand struct {
	bytes int64
	dram  int64   // DRAM transfer cycles (core.Result.DRAMCycles)
	dynPJ float64 // dynamic energy, DRAM included
}

// explorePEs evaluates the sub-space of one PE count, handing each
// valid point to emit. cands is the caller's buffer for the L2
// candidates of a mapping; explorePEs returns it, grown, for reuse.
func (pl *sweepPlan) explorePEs(ctx context.Context, pes int, cands []l2Cand, emit func(Point), st *exploreCounters) []l2Cand {
	perMapping := int64(len(pl.BWs)) * pl.gridPerMapping
	// Skip-invalid bound: even with the smallest buffers and narrowest
	// NoC, this PE count may already blow the budget.
	minArea := pl.Cost.Area(pes, 0, 0, pl.narrowest)
	minPower := pl.Cost.Power(pes, 0, 0, pl.narrowest)
	if minArea > pl.AreaBudgetMM2 || minPower > pl.PowerBudgetMW {
		st.explored.Add(int64(len(pl.dfs)) * perMapping)
		return cands
	}
	// The bandwidth-axis configurations depend only on (pes, bw), so
	// build them once per PE job and batch-price them against every
	// mapping's profile below. One backing slice serves all NoC models.
	nocs := make([]noc.Model, len(pl.BWs))
	cfgs := make([]hw.Config, len(pl.BWs))
	for i, bw := range pl.BWs {
		m := noc.Bus(bw)
		m.Reduction = true
		nocs[i] = m
		cfgs[i] = hw.Config{
			Name: "dse", NumPEs: pes,
			NoCs: nocs[i : i+1 : i+1],
		}.Normalize()
	}
	p2s := pl.Template.P2
	for i, df := range pl.dfs {
		p1, p2 := pl.Template.P1[i/len(p2s)], p2s[i%len(p2s)]
		mctx, mspan := obs.Start(ctx, "dse.mapping",
			obs.Int("pes", pes), obs.Int("p1", p1), obs.Int("p2", p2))
		st.explored.Add(perMapping)
		// Profile once per (pes, p1, p2): the cluster walk is
		// hardware-independent, so the whole bandwidth axis below
		// re-prices the same recorded DAG — in one batch walk.
		prof, cached, err := pl.profileMapping(mctx, df, pes)
		if err != nil {
			mspan.SetAttr(obs.String("error", err.Error()))
			mspan.End()
			continue
		}
		if !cached {
			st.invoked.Add(1)
		}
		st.priced.Add(int64(len(pl.BWs)))
		rs, _ := prof.PriceBatchCtx(mctx, cfgs)
		var l1 int64
		cands = cands[:0]
		for _, r := range rs {
			if r != nil {
				// The lanes differ only in bandwidth, so any priced
				// one carries the mapping's buffer requirements and
				// traffic.
				l1 = r.L1ReqBytes()
				cands = pl.l2Candidates(cands, r, pes, l1)
				break
			}
		}
		var valid int64
		for j, bw := range pl.BWs {
			r := rs[j]
			if r == nil {
				continue
			}
			for _, c := range cands {
				area := pl.Cost.Area(pes, l1*int64(pes), c.bytes, bw)
				power := pl.Cost.Power(pes, l1*int64(pes), c.bytes, bw)
				if area > pl.AreaBudgetMM2 || power > pl.PowerBudgetMW {
					continue
				}
				runtime := max(r.OnChipRuntime, c.dram)
				pt := Point{
					NumPEs: pes, BW: bw, P1: p1, P2: p2,
					L1Bytes: l1, L2Bytes: c.bytes,
					AreaMM2: area, PowerMW: power,
					Runtime:  runtime,
					EnergyPJ: c.dynPJ + pl.Cost.StaticEnergyPJ(area, runtime),
				}
				if runtime > 0 {
					pt.Throughput = float64(r.MACs) / float64(runtime)
				}
				pt.EDP = pt.EnergyPJ * float64(pt.Runtime)
				emit(pt)
				// L1 capacities above the per-PE requirement are
				// valid by dominance; count them arithmetically.
				valid += 1 + pl.l1Headroom(pes, bw, l1, c.bytes)
			}
		}
		st.valid.Add(valid)
		mspan.End()
	}
	return cands
}

// profileMapping builds (or fetches) the hardware-independent profile of
// one mapping. The cached flag is true only when the profile came from
// the shared cache's LRU.
func (sp *Space) profileMapping(ctx context.Context, df dataflow.Dataflow, pes int) (*core.LayerProfile, bool, error) {
	if sp.Profiles != nil {
		return sp.Profiles.ProfileDataflowCtx(ctx, df, sp.Layer, pes)
	}
	spec, err := dataflow.Resolve(df, sp.Layer, pes)
	if err != nil {
		return nil, false, err
	}
	prof, err := core.ProfileCtx(ctx, spec)
	return prof, false, err
}

// l2Candidates appends to dst the shared-scratchpad capacities to
// evaluate for the mapping r prices — its staging requirement and every
// grid capacity above it — each with its DRAM delay and dynamic energy.
// The L2 grid is a real axis: capacity beyond the requirement retains
// tensors on-chip, trading SRAM area and access energy against DRAM
// traffic.
func (pl *sweepPlan) l2Candidates(dst []l2Cand, r *core.Result, pes int, l1 int64) []l2Cand {
	req := r.L2ReqBytes()
	add := func(l2 int64) {
		at := r.AtL2(l2)
		dst = append(dst, l2Cand{
			bytes: l2,
			dram:  at.DRAMCycles(),
			dynPJ: at.Energy(energy.TableFor(l1, l2, pes)).Total(),
		})
	}
	add(req)
	for _, g := range pl.L2Grid {
		if g > req {
			add(g)
		}
	}
	return dst
}

// l1Headroom counts grid L1 capacities at or above the per-PE requirement
// that still fit the budget. Area and power never fall as the L1
// capacity grows (hw.CostModel), so the fitting capacities of the sorted
// grid are a prefix of it, and the count is the distance between two
// binary searches.
func (pl *sweepPlan) l1Headroom(pes int, bw float64, l1, l2 int64) int64 {
	g := pl.l1Sorted
	lo, _ := slices.BinarySearch(g, l1)
	hi := lo + sort.Search(len(g)-lo, func(i int) bool {
		l1Total := g[lo+i] * int64(pes)
		return pl.Cost.Area(pes, l1Total, l2, bw) > pl.AreaBudgetMM2 ||
			pl.Cost.Power(pes, l1Total, l2, bw) > pl.PowerBudgetMW
	})
	if hi == lo {
		return 0
	}
	return int64(hi-lo) - 1 // the exact-requirement point itself is already counted
}

// Pareto returns the throughput/energy Pareto frontier: points not
// dominated by any other (higher-or-equal throughput and lower-or-equal
// energy, strictly better in one). Survivors keep their input order.
//
// Sort-and-scan, O(n log n): visiting throughput groups in descending
// order, a point survives iff it has the minimum energy of its own
// throughput group and beats (strictly) the best energy seen in every
// higher-throughput group — anything else has a dominator either beside
// it or above it.
func Pareto(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.Throughput != pb.Throughput {
			return pa.Throughput > pb.Throughput
		}
		return pa.EnergyPJ < pb.EnergyPJ
	})
	keep := make([]bool, len(pts))
	bestE := math.Inf(1)
	for i := 0; i < len(idx); {
		j := i
		groupMin := math.Inf(1)
		for ; j < len(idx) && pts[idx[j]].Throughput == pts[idx[i]].Throughput; j++ {
			if e := pts[idx[j]].EnergyPJ; e < groupMin {
				groupMin = e
			}
		}
		if groupMin < bestE {
			// Every copy of the group minimum survives: equal points do
			// not dominate each other.
			for k := i; k < j; k++ {
				if pts[idx[k]].EnergyPJ == groupMin {
					keep[idx[k]] = true
				}
			}
			bestE = groupMin
		}
		i = j
	}
	var front []Point
	for i, p := range pts {
		if keep[i] {
			front = append(front, p)
		}
	}
	return front
}
