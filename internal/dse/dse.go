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
	// (obs.WithRecorder) Explore emits a "dse.explore" span with one
	// "dse.mapping" child per (PEs, P1, P2) point, each containing its
	// profile span and a single "core.price_batch" span covering the
	// whole bandwidth axis. Nil means Background.
	Ctx context.Context
	// Progress, when non-nil, receives periodic exploration updates from
	// a single reporter goroutine (so the callback never runs
	// concurrently with itself), plus one final update on completion.
	Progress func(Progress)
	// ProgressEvery is the reporting interval (default 1s).
	ProgressEvery time.Duration
}

// Progress is one live exploration update.
type Progress struct {
	Explored int64 // grid points covered so far
	Invoked  int64 // cluster walks performed
	Priced   int64 // hardware points priced
	Valid    int64 // valid designs found
	Elapsed  time.Duration
}

// Rate returns explored designs per second so far.
func (p Progress) Rate() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Explored) / p.Elapsed.Seconds()
}

// Point is one valid design.
type Point struct {
	NumPEs  int
	BW      float64 // elements/cycle
	P1, P2  int
	L1Bytes int64 // per-PE scratchpad, as required by the mapping
	L2Bytes int64

	AreaMM2    float64
	PowerMW    float64
	Runtime    int64
	Throughput float64 // MACs/cycle
	EnergyPJ   float64 // on-chip energy for the layer
	EDP        float64
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

func (c *exploreCounters) progress(start time.Time) Progress {
	return Progress{
		Explored: c.explored.Load(),
		Invoked:  c.invoked.Load(),
		Priced:   c.priced.Load(),
		Valid:    c.valid.Load(),
		Elapsed:  time.Since(start),
	}
}

// Explore sweeps the space and returns all valid design points.
func Explore(sp Space) ([]Point, Stats) {
	start := time.Now()
	stats := Stats{}
	gridPerMapping := int64(len(sp.L1Grid)) * int64(len(sp.L2Grid))
	if gridPerMapping == 0 {
		gridPerMapping = 1
	}
	stats.Raw = int64(len(sp.PEs)) * int64(len(sp.BWs)) *
		int64(len(sp.Template.P1)) * int64(len(sp.Template.P2)) * gridPerMapping

	ctx := sp.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "dse.explore",
		obs.String("template", sp.Template.Name),
		obs.String("layer", sp.Layer.Name),
		obs.Int64("raw_designs", stats.Raw))

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
					sp.Progress(c.progress(start))
				case <-stopReporter:
					sp.Progress(c.progress(start))
					return
				}
			}
		}()
	}

	type job struct{ pes int }
	jobs := make(chan job)
	var mu sync.Mutex
	var points []Point
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var localPts []Point
			for j := range jobs {
				explorePEs(ctx, sp, j.pes, gridPerMapping, &localPts, &c)
			}
			mu.Lock()
			points = append(points, localPts...)
			mu.Unlock()
		}()
	}
	for _, pes := range sp.PEs {
		jobs <- job{pes}
	}
	close(jobs)
	wg.Wait()
	close(stopReporter)
	if reporterDone != nil {
		<-reporterDone
	}
	stats.Explored = c.explored.Load()
	stats.Invoked = c.invoked.Load()
	stats.Priced = c.priced.Load()
	stats.Valid = c.valid.Load()
	stats.Elapsed = time.Since(start)
	span.SetAttr(
		obs.Int64("explored", stats.Explored),
		obs.Int64("invoked", stats.Invoked),
		obs.Int64("priced", stats.Priced),
		obs.Int64("valid", stats.Valid))
	span.End()
	return points, stats
}

// explorePEs evaluates the sub-space of one PE count.
func explorePEs(ctx context.Context, sp Space, pes int, gridPerMapping int64, out *[]Point, st *exploreCounters) {
	innerRaw := int64(len(sp.BWs)) * int64(len(sp.Template.P1)) *
		int64(len(sp.Template.P2)) * gridPerMapping
	// Skip-invalid bound: even with the smallest buffers and narrowest
	// NoC, this PE count may already blow the budget. Area and power grow
	// with bandwidth, so the narrowest NoC is the axis minimum.
	narrowest := slices.Min(sp.BWs)
	minArea := sp.Cost.Area(pes, 0, 0, narrowest)
	minPower := sp.Cost.Power(pes, 0, 0, narrowest)
	if minArea > sp.AreaBudgetMM2 || minPower > sp.PowerBudgetMW {
		st.explored.Add(innerRaw)
		return
	}
	// The bandwidth-axis configurations depend only on (pes, bw), so
	// build them once per PE job and batch-price them against every
	// mapping's profile below. One backing slice serves all NoC models.
	nocs := make([]noc.Model, len(sp.BWs))
	cfgs := make([]hw.Config, len(sp.BWs))
	for i, bw := range sp.BWs {
		m := noc.Bus(bw)
		m.Reduction = true
		nocs[i] = m
		cfgs[i] = hw.Config{
			Name: "dse", NumPEs: pes,
			NoCs: nocs[i : i+1 : i+1],
		}.Normalize()
	}
	var tables []energy.Table
	for _, p1 := range sp.Template.P1 {
		for _, p2 := range sp.Template.P2 {
			df := sp.Template.Build(p1, p2)
			mctx, mspan := obs.Start(ctx, "dse.mapping",
				obs.Int("pes", pes), obs.Int("p1", p1), obs.Int("p2", p2))
			// Profile once per (pes, p1, p2): the cluster walk is
			// hardware-independent, so the whole bandwidth axis below
			// re-prices the same recorded DAG — in one batch walk.
			prof, cached, err := sp.profileMapping(mctx, df, pes)
			if err != nil {
				st.explored.Add(int64(len(sp.BWs)) * gridPerMapping)
				mspan.SetAttr(obs.String("error", err.Error()))
				mspan.End()
				continue
			}
			if !cached {
				st.invoked.Add(1)
			}
			st.explored.Add(int64(len(sp.BWs)) * gridPerMapping)
			st.priced.Add(int64(len(sp.BWs)))
			rs, _ := prof.PriceBatchCtx(mctx, cfgs)
			var l1 int64
			var cands []int64
			for i, bw := range sp.BWs {
				r := rs[i]
				if r == nil {
					continue
				}
				if cands == nil {
					// The scratchpad requirements come from the recorded
					// profile, not the NoC, so the L2 candidate set and
					// the energy tables are identical across the whole
					// bandwidth axis: compute them once per mapping.
					l1 = r.L1ReqBytes()
					cands = sp.l2Candidates(r.L2ReqBytes())
					tables = tables[:0]
					for _, l2 := range cands {
						tables = append(tables, energy.TableFor(l1, l2, pes))
					}
				}
				// The L2 grid is a real axis: capacity beyond the staging
				// requirement retains tensors on-chip, trading SRAM area
				// and access energy against DRAM traffic. AtL2 re-prices
				// the same analysis per capacity, so the whole column
				// costs one engine invocation.
				for ci, l2 := range cands {
					r2 := r.AtL2(l2)
					area := sp.Cost.Area(pes, l1*int64(pes), l2, bw)
					power := sp.Cost.Power(pes, l1*int64(pes), l2, bw)
					if area > sp.AreaBudgetMM2 || power > sp.PowerBudgetMW {
						continue
					}
					eb := r2.Energy(tables[ci])
					pt := Point{
						NumPEs: pes, BW: bw, P1: p1, P2: p2,
						L1Bytes: l1, L2Bytes: l2,
						AreaMM2: area, PowerMW: power,
						Runtime:    r2.Runtime,
						Throughput: r2.Throughput(),
						EnergyPJ:   eb.Total() + sp.Cost.StaticEnergyPJ(area, r2.Runtime),
					}
					pt.EDP = pt.EnergyPJ * float64(pt.Runtime)
					*out = append(*out, pt)
					// L1 capacities above the per-PE requirement are
					// valid by dominance; count them arithmetically.
					st.valid.Add(1 + sp.l1Headroom(pes, bw, l1, l2))
				}
			}
			mspan.End()
		}
	}
}

// profileMapping builds (or fetches) the hardware-independent profile of
// one mapping. The cached flag is true only when the profile came from
// the shared cache's LRU.
func (sp Space) profileMapping(ctx context.Context, df dataflow.Dataflow, pes int) (*core.LayerProfile, bool, error) {
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

// l2Candidates returns the shared-scratchpad capacities to evaluate for
// a mapping whose staging requirement is req: the requirement itself plus
// every grid capacity above it.
func (sp Space) l2Candidates(req int64) []int64 {
	cands := []int64{req}
	for _, g := range sp.L2Grid {
		if g > req {
			cands = append(cands, g)
		}
	}
	return cands
}

// l1Headroom counts grid L1 capacities at or above the per-PE requirement
// that still fit the budget.
func (sp Space) l1Headroom(pes int, bw float64, l1, l2 int64) int64 {
	var n int64
	for _, g1 := range sp.L1Grid {
		if g1 < l1 {
			continue
		}
		if sp.Cost.Area(pes, g1*int64(pes), l2, bw) > sp.AreaBudgetMM2 {
			continue
		}
		if sp.Cost.Power(pes, g1*int64(pes), l2, bw) > sp.PowerBudgetMW {
			continue
		}
		n++
	}
	if n > 0 {
		n-- // the exact-requirement point itself is already counted
	}
	return n
}

// ThroughputOpt returns the highest-throughput point (ties: lower energy).
func ThroughputOpt(pts []Point) (Point, bool) {
	return pick(pts, func(a, b Point) bool {
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
		return a.EnergyPJ < b.EnergyPJ
	})
}

// EnergyOpt returns the lowest-energy point (ties: higher throughput).
func EnergyOpt(pts []Point) (Point, bool) {
	return pick(pts, func(a, b Point) bool {
		if a.EnergyPJ != b.EnergyPJ {
			return a.EnergyPJ < b.EnergyPJ
		}
		return a.Throughput > b.Throughput
	})
}

// EDPOpt returns the lowest energy-delay-product point.
func EDPOpt(pts []Point) (Point, bool) {
	return pick(pts, func(a, b Point) bool { return a.EDP < b.EDP })
}

func pick(pts []Point, better func(a, b Point) bool) (Point, bool) {
	if len(pts) == 0 {
		return Point{}, false
	}
	best := pts[0]
	for _, p := range pts[1:] {
		if better(p, best) {
			best = p
		}
	}
	return best, true
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
