package dse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// FusionSpace is a bounded sweep over graph-level schedules of one
// network: the (L2 budget x fusion granularity) plane, each point
// priced by the netsched graph scheduler. Where Space asks "which
// hardware and mapping run this layer best", FusionSpace asks "which
// partitioning of the network DAG makes the off-chip traffic smallest
// on hardware already fixed".
type FusionSpace struct {
	Model models.Model
	Cfg   hw.Config
	// Dataflow names a Table 3 template applied to every layer; empty
	// auto-tunes per layer.
	Dataflow string

	// L2Grid lists the retention budgets to sweep (netsched's L2Bytes
	// axis; 0 is the no-fusion sentinel). Nil uses DefaultFusionL2Grid.
	L2Grid []int64
	// MaxGroupLayers lists the fusion-subgraph size caps to sweep
	// (1 = singleton groups, retention only). Nil uses {1, 2, 4, 8}.
	MaxGroupLayers []int

	// Workers caps the worker pool. Each worker prices one budget at a
	// time, every granularity cap of it at once (default: one per
	// budget, at most 8).
	Workers int
	// Ctx carries cancellation and the obs span tree.
	Ctx context.Context
}

// DefaultFusionL2Grid is the budget ladder swept when L2Grid is nil:
// the sentinel plus a geometric 32 KiB..4 MiB ladder.
func DefaultFusionL2Grid() []int64 {
	return append([]int64{0}, DefaultGrid(32<<10, 4<<20, 2)...)
}

// FusionPoint is one priced partitioning of the sweep.
type FusionPoint struct {
	L2Bytes        int64
	MaxGroupLayers int

	// FusedGroups counts subgraphs with two or more layers.
	FusedGroups int
	// DRAMTraffic is the fused schedule's claimed off-chip element
	// total; BaselineDRAM prices the same budget without fusion.
	DRAMTraffic  int64
	BaselineDRAM int64
	DRAMSaved    int64
	ActTraffic   int64
	BaselineAct  int64
	TotalCycles  int64
	EnergyPJ     float64
}

// SavedFrac is the fused schedule's DRAM saving as a fraction of the
// per-layer baseline (0 when the baseline is empty).
func (p FusionPoint) SavedFrac() float64 {
	if p.BaselineDRAM <= 0 {
		return 0
	}
	return float64(p.DRAMSaved) / float64(p.BaselineDRAM)
}

// FusionStats counts a fusion sweep.
type FusionStats struct {
	// Raw is the full grid size; Valid the points the scheduler priced
	// (a point drops out only when no layer maps under the template).
	Raw     int64
	Valid   int64
	Elapsed time.Duration
}

func (sp FusionSpace) withDefaults() FusionSpace {
	if sp.L2Grid == nil {
		sp.L2Grid = DefaultFusionL2Grid()
	}
	if sp.MaxGroupLayers == nil {
		sp.MaxGroupLayers = []int{1, 2, 4, 8}
	}
	if sp.Workers <= 0 {
		sp.Workers = min(8, len(sp.L2Grid))
	}
	if sp.Ctx == nil {
		sp.Ctx = context.Background()
	}
	return sp
}

// fusionOptions resolves the template name to netsched options.
func fusionOptions(name string) (netsched.Options, error) {
	if name == "" {
		return netsched.Options{}, nil
	}
	known := false
	for _, n := range dataflows.Names {
		if n == name {
			known = true
			break
		}
	}
	if !known {
		return netsched.Options{}, fmt.Errorf("dse: unknown fusion dataflow %q (have %v)", name, dataflows.Names)
	}
	df := dataflows.Get(name)
	return netsched.Options{Dataflow: func(tensor.Layer) (dataflow.Dataflow, bool) {
		return df, true
	}}, nil
}

// ExploreFusion sweeps the fusion plane and returns every priced point
// in canonical (L2Bytes, MaxGroupLayers) order. The hardware is fixed
// across the sweep; only the scheduler's budget and granularity move,
// so points are directly comparable. An error means the sweep itself
// is malformed (empty model, unknown template, bad DAG) — individual
// unpriceable points are skipped and reflected in Stats.Valid.
func ExploreFusion(sp FusionSpace) ([]FusionPoint, FusionStats, error) {
	sp = sp.withDefaults()
	if len(sp.Model.Layers) == 0 {
		return nil, FusionStats{}, errors.New("dse: fusion sweep needs a model with layers")
	}
	if err := sp.Model.ValidateEdges(); err != nil {
		return nil, FusionStats{}, err
	}
	base, err := fusionOptions(sp.Dataflow)
	if err != nil {
		return nil, FusionStats{}, err
	}
	for _, l2 := range sp.L2Grid {
		if l2 < 0 {
			return nil, FusionStats{}, fmt.Errorf("dse: negative L2 budget %d in fusion grid", l2)
		}
	}

	caps := sp.MaxGroupLayers
	raw := len(sp.L2Grid) * len(caps)
	start := time.Now()
	ctx, span := obs.Start(sp.Ctx, "dse.fusion",
		obs.String("model", sp.Model.Name), obs.Int64("raw", int64(raw)))
	defer span.End()

	// One job per budget: RunFusedCaps builds the budget's mappings and
	// prices its intervals once for every cap.
	points := make([]*FusionPoint, raw)
	var wg sync.WaitGroup
	sem := make(chan struct{}, sp.Workers)
	for b, l2 := range sp.L2Grid {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(b int, l2 int64) {
			defer wg.Done()
			defer func() { <-sem }()
			opt := base
			opt.L2Bytes = l2
			scheds, err := netsched.RunFusedCaps(sp.Model, sp.Cfg, opt, caps)
			if err != nil {
				return
			}
			for k, s := range scheds {
				points[b*len(caps)+k] = &FusionPoint{
					L2Bytes:        l2,
					MaxGroupLayers: caps[k],
					FusedGroups:    s.FusedGroups(),
					DRAMTraffic:    s.DRAMTraffic,
					BaselineDRAM:   s.BaselineDRAM,
					DRAMSaved:      s.DRAMSaved,
					ActTraffic:     s.ActTraffic,
					BaselineAct:    s.BaselineAct,
					TotalCycles:    s.TotalCycles,
					EnergyPJ:       s.EnergyPJ,
				}
			}
		}(b, l2)
	}
	wg.Wait()

	var out []FusionPoint
	for _, p := range points {
		if p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].L2Bytes != out[j].L2Bytes {
			return out[i].L2Bytes < out[j].L2Bytes
		}
		return out[i].MaxGroupLayers < out[j].MaxGroupLayers
	})
	st := FusionStats{
		Raw:     int64(raw),
		Valid:   int64(len(out)),
		Elapsed: time.Since(start),
	}
	span.SetAttr(obs.Int64("valid", st.Valid))
	return out, st, ctx.Err()
}

// BestFusion picks the point with the least DRAM traffic, breaking
// ties toward the smaller budget and then the coarser cap (fewer fused
// layers per group means less scheduling risk for the same traffic).
func BestFusion(points []FusionPoint) (FusionPoint, bool) {
	if len(points) == 0 {
		return FusionPoint{}, false
	}
	best := points[0]
	for _, p := range points[1:] {
		switch {
		case p.DRAMTraffic < best.DRAMTraffic:
			best = p
		case p.DRAMTraffic == best.DRAMTraffic && p.L2Bytes < best.L2Bytes:
			best = p
		case p.DRAMTraffic == best.DRAMTraffic && p.L2Bytes == best.L2Bytes &&
			p.MaxGroupLayers < best.MaxGroupLayers:
			best = p
		}
	}
	return best, true
}

// PartitionFusionGrid splits a budget grid into at most target
// contiguous, non-empty, disjoint chunks covering every budget exactly
// once — the fleet coordinator's shard unit for fusion sweeps. The
// granularity axis stays whole per shard, because the partitionings at
// one budget share one RunFusedCaps: its mappings, re-tunes and
// interval prices.
func PartitionFusionGrid(grid []int64, target int) [][]int64 {
	if len(grid) == 0 {
		return nil
	}
	if target < 1 {
		target = 1
	}
	if target > len(grid) {
		target = len(grid)
	}
	var chunks [][]int64
	for i := 0; i < target; i++ {
		lo := i * len(grid) / target
		hi := (i + 1) * len(grid) / target
		chunks = append(chunks, grid[lo:hi])
	}
	return chunks
}
