package dse

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/obs"
)

func smallSpace() Space {
	vgg := models.VGG16()
	conv11, _ := vgg.Find("CONV11")
	return Space{
		Layer: conv11.Layer,
		Template: Template{
			Name:  "KC-P",
			Build: dataflows.KCPSized,
			P1:    []int{16, 32, 64},
			P2:    []int{8, 16},
		},
		PEs:           []int{64, 128, 256},
		BWs:           []float64{8, 16, 32},
		L1Grid:        DefaultGrid(64, 1<<14, 2),
		L2Grid:        DefaultGrid(1<<12, 1<<21, 2),
		AreaBudgetMM2: 16,
		PowerBudgetMW: 450,
		Cost:          hw.Default28nm(),
		Workers:       2,
	}
}

func TestExplore(t *testing.T) {
	pts, stats := Explore(smallSpace())
	if len(pts) == 0 {
		t.Fatal("no valid designs found")
	}
	if stats.Valid < int64(len(pts)) {
		t.Errorf("stats.Valid %d < evaluated points %d", stats.Valid, len(pts))
	}
	if stats.Explored > stats.Raw {
		t.Errorf("explored %d > raw %d", stats.Explored, stats.Raw)
	}
	if stats.Invoked == 0 || stats.Invoked > stats.Explored {
		t.Errorf("invoked %d out of range (explored %d)", stats.Invoked, stats.Explored)
	}
	for _, p := range pts {
		if p.AreaMM2 > 16 || p.PowerMW > 450 {
			t.Fatalf("budget violated: %+v", p)
		}
		if p.Throughput <= 0 || p.EnergyPJ <= 0 {
			t.Fatalf("degenerate point: %+v", p)
		}
	}
}

func TestOptima(t *testing.T) {
	pts, _ := Explore(smallSpace())
	thr, ok1 := ThroughputOpt(pts)
	eng, ok2 := EnergyOpt(pts)
	edp, ok3 := EDPOpt(pts)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("optima not found")
	}
	if eng.EnergyPJ > thr.EnergyPJ {
		t.Errorf("energy-opt %v pJ worse than throughput-opt %v pJ", eng.EnergyPJ, thr.EnergyPJ)
	}
	if thr.Throughput < eng.Throughput {
		t.Errorf("throughput-opt slower than energy-opt")
	}
	if edp.EDP > thr.EDP || edp.EDP > eng.EDP {
		t.Errorf("EDP-opt not minimal: %v vs %v / %v", edp.EDP, thr.EDP, eng.EDP)
	}
}

func TestPareto(t *testing.T) {
	pts, _ := Explore(smallSpace())
	front := Pareto(pts)
	if len(front) == 0 || len(front) > len(pts) {
		t.Fatalf("frontier size %d of %d", len(front), len(pts))
	}
	// Every non-frontier point must be dominated by some frontier point.
	inFront := map[Point]bool{}
	for _, p := range front {
		inFront[p] = true
	}
	for _, p := range pts {
		if inFront[p] {
			continue
		}
		dominated := false
		for _, q := range front {
			if q.Throughput >= p.Throughput && q.EnergyPJ <= p.EnergyPJ {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("point %+v neither on frontier nor dominated", p)
		}
	}
}

func TestSkipInvalidPruning(t *testing.T) {
	sp := smallSpace()
	sp.PEs = []int{1 << 20} // absurd: must be pruned without invocations
	pts, stats := Explore(sp)
	if len(pts) != 0 {
		t.Fatal("invalid PEs produced designs")
	}
	if stats.Invoked != 0 {
		t.Errorf("pruning failed: %d invocations", stats.Invoked)
	}
	if stats.Explored != stats.Raw {
		t.Errorf("pruned sub-space not counted: explored %d raw %d", stats.Explored, stats.Raw)
	}
}

// TestBandwidthAxisAnyOrder: the skip-invalid bound must use the
// narrowest NoC on the axis, not its first entry. At 256 PEs a 128
// elem/cycle bus alone exceeds the 450 mW budget while a 4 elem/cycle
// bus fits, so an axis that starts wide must not prune the PE count.
func TestBandwidthAxisAnyOrder(t *testing.T) {
	sp := smallSpace()
	sp.PEs = []int{64, 256, 512}
	sp.BWs = []float64{4, 16, 64, 128}
	want, wantStats := Explore(sp)
	SortPoints(want)
	if wantStats.Valid == 0 {
		t.Fatal("ascending axis found no valid design")
	}
	for _, bws := range [][]float64{{128, 64, 16, 4}, {64, 4, 128, 16}} {
		sp.BWs = bws
		got, stats := Explore(sp)
		SortPoints(got)
		stats.Elapsed = wantStats.Elapsed
		if stats != wantStats {
			t.Errorf("BWs %v: stats %+v, ascending axis %+v", bws, stats, wantStats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BWs %v: %d points differ from the ascending axis's %d", bws, len(got), len(want))
		}
	}
}

// TestL2AxisTradesEnergy: within one mapping, growing L2 along the grid
// must never increase DRAM traffic, and some growth must pay off in
// energy (the retention trade the DSE explores).
func TestL2AxisTradesEnergy(t *testing.T) {
	sp := smallSpace()
	pts, _ := Explore(sp)
	// Group points by identical mapping+hardware except L2.
	type key struct {
		pes    int
		bw     float64
		p1, p2 int
	}
	groups := map[key][]Point{}
	for _, p := range pts {
		k := key{p.NumPEs, p.BW, p.P1, p.P2}
		groups[k] = append(groups[k], p)
	}
	multi := 0
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		multi++
		// Runtime must be non-increasing in L2 (DRAM bound can only relax).
		for i := range g {
			for j := range g {
				if g[i].L2Bytes < g[j].L2Bytes && g[i].Runtime < g[j].Runtime {
					t.Fatalf("bigger L2 slowed the design: %+v vs %+v", g[i], g[j])
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no mapping explored multiple L2 capacities")
	}
}

// TestExploreProgress checks that the live reporter fires and that its
// final update matches the returned stats.
func TestExploreProgress(t *testing.T) {
	sp := smallSpace()
	var mu sync.Mutex
	var last Progress
	calls := 0
	sp.ProgressEvery = time.Millisecond
	sp.Progress = func(p Progress) {
		mu.Lock()
		last, calls = p, calls+1
		mu.Unlock()
	}
	_, stats := Explore(sp)
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("progress reporter never fired")
	}
	// The reporter always delivers one final update after the workers
	// finish, so the last snapshot equals the settled totals.
	if last.Explored != stats.Explored || last.Priced != stats.Priced ||
		last.Valid != stats.Valid || last.Invoked != stats.Invoked {
		t.Errorf("final progress %+v != stats %+v", last, stats)
	}
	if last.Rate() <= 0 {
		t.Errorf("final rate %v, want > 0", last.Rate())
	}
}

// TestExploreTraced runs a sweep under an obs recorder and checks the
// span tree: one dse.explore root with per-mapping children that carry
// the worker's knob attributes.
func TestExploreTraced(t *testing.T) {
	sp := smallSpace()
	rec := obs.NewRecorder()
	sp.Ctx = obs.WithRecorder(context.Background(), rec)
	_, stats := Explore(sp)

	spans := rec.Snapshot()
	var root *obs.SpanRecord
	mappings := 0
	for i := range spans {
		switch spans[i].Name {
		case "dse.explore":
			root = &spans[i]
		case "dse.mapping":
			mappings++
		}
	}
	if root == nil {
		t.Fatal("no dse.explore span recorded")
	}
	if got, ok := root.Attr("explored"); !ok || got != fmt.Sprint(stats.Explored) {
		t.Errorf("dse.explore explored attr = %q (ok=%v), want %d", got, ok, stats.Explored)
	}
	if int64(mappings) != stats.Invoked {
		t.Errorf("%d dse.mapping spans, want one per invocation (%d)", mappings, stats.Invoked)
	}
	for _, s := range spans {
		if s.Name != "dse.mapping" {
			continue
		}
		if s.Parent != root.ID || s.Track != root.Track {
			t.Fatalf("mapping span not parented to explore root: %+v", s)
		}
		if _, ok := s.Attr("pes"); !ok {
			t.Fatalf("mapping span missing pes attr: %+v", s)
		}
	}
}

// TestExploreBatchSpanShape pins the tracing cost of the batch pricing
// path: each mapping emits exactly one core.price_batch span covering
// the whole bandwidth axis (points == len(BWs)) and zero per-point
// core.price spans — the span count is O(mappings), not O(designs), so
// tracing overhead stays within the ≤3% budget by construction.
func TestExploreBatchSpanShape(t *testing.T) {
	sp := smallSpace()
	rec := obs.NewRecorder()
	sp.Ctx = obs.WithRecorder(context.Background(), rec)
	_, stats := Explore(sp)

	batchSpans, priceSpans := 0, 0
	for _, s := range rec.Snapshot() {
		switch s.Name {
		case "core.price_batch":
			batchSpans++
			if got, ok := s.Attr("points"); !ok || got != fmt.Sprint(len(sp.BWs)) {
				t.Errorf("core.price_batch points attr = %q (ok=%v), want %d", got, ok, len(sp.BWs))
			}
		case "core.price":
			priceSpans++
		}
	}
	if int64(batchSpans) != stats.Invoked {
		t.Errorf("%d core.price_batch spans, want one per mapping (%d)", batchSpans, stats.Invoked)
	}
	if priceSpans != 0 {
		t.Errorf("%d per-point core.price spans leaked into the batch path, want 0", priceSpans)
	}
	if stats.Priced != stats.Invoked*int64(len(sp.BWs)) {
		t.Errorf("Priced = %d, want Invoked(%d) × BWs(%d)", stats.Priced, stats.Invoked, len(sp.BWs))
	}
}
