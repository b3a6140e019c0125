package dse

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/noc"
)

// TestExploreProfileOncePerMapping checks the profile/price accounting:
// every resolvable mapping is profiled exactly once and priced once per
// bandwidth point.
func TestExploreProfileOncePerMapping(t *testing.T) {
	sp := smallSpace()
	_, stats := Explore(sp)
	if stats.Invoked == 0 {
		t.Fatal("no mappings profiled")
	}
	wantPriced := stats.Invoked * int64(len(sp.BWs))
	if stats.Priced != wantPriced {
		t.Errorf("Priced = %d, want Invoked(%d) × BWs(%d) = %d",
			stats.Priced, stats.Invoked, len(sp.BWs), wantPriced)
	}
}

// TestExploreSharedProfileCache runs the same space twice through one
// cache: the second run must find every profile resident and perform no
// walks, while producing identical design points.
func TestExploreSharedProfileCache(t *testing.T) {
	sp := smallSpace()
	sp.Workers = 1 // deterministic point order, so the float energy sum is exact
	sp.Profiles = core.NewProfileCache(256)
	pts1, stats1 := Explore(sp)
	pts2, stats2 := Explore(sp)
	if stats1.Invoked == 0 {
		t.Fatal("first run profiled nothing")
	}
	if stats2.Invoked != 0 {
		t.Errorf("second run re-profiled %d mappings despite warm cache", stats2.Invoked)
	}
	if stats2.Priced != stats1.Priced {
		t.Errorf("pricing count changed across runs: %d vs %d", stats1.Priced, stats2.Priced)
	}
	if len(pts1) != len(pts2) {
		t.Fatalf("point count changed across runs: %d vs %d", len(pts1), len(pts2))
	}
	sum := func(pts []Point) (r int64, e float64) {
		for _, p := range pts {
			r += p.Runtime
			e += p.EnergyPJ
		}
		return
	}
	r1, e1 := sum(pts1)
	r2, e2 := sum(pts2)
	if r1 != r2 || e1 != e2 {
		t.Errorf("cached run produced different designs: runtime %d/%d energy %g/%g", r1, r2, e1, e2)
	}
}

// naiveExplorePEs is the pre-refactor inner loop, kept as the benchmark
// baseline: one full core.Analyze per bandwidth point instead of one
// profile re-priced across the axis.
func naiveExplorePEs(sp Space, pes int, gridPerMapping int64, out *[]Point, st *Stats) {
	innerRaw := int64(len(sp.BWs)) * int64(len(sp.Template.P1)) *
		int64(len(sp.Template.P2)) * gridPerMapping
	minArea := sp.Cost.Area(pes, 0, 0, slices.Min(sp.BWs))
	minPower := sp.Cost.Power(pes, 0, 0, slices.Min(sp.BWs))
	if minArea > sp.AreaBudgetMM2 || minPower > sp.PowerBudgetMW {
		st.Explored += innerRaw
		return
	}
	for _, p1 := range sp.Template.P1 {
		for _, p2 := range sp.Template.P2 {
			df := sp.Template.Build(p1, p2)
			spec, err := dataflow.Resolve(df, sp.Layer, pes)
			if err != nil {
				st.Explored += int64(len(sp.BWs)) * gridPerMapping
				continue
			}
			for _, bw := range sp.BWs {
				st.Explored += gridPerMapping
				m := noc.Bus(bw)
				m.Reduction = true
				cfg := hw.Config{Name: "dse", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize()
				st.Invoked++
				r, err := core.Analyze(spec, cfg)
				if err != nil {
					continue
				}
				l1 := r.L1ReqBytes()
				cands := []int64{r.L2ReqBytes()}
				for _, g := range sp.L2Grid {
					if g > cands[0] {
						cands = append(cands, g)
					}
				}
				for _, l2 := range cands {
					r2 := r.WithL2(l2)
					area := sp.Cost.Area(pes, l1*int64(pes), l2, bw)
					power := sp.Cost.Power(pes, l1*int64(pes), l2, bw)
					if area > sp.AreaBudgetMM2 || power > sp.PowerBudgetMW {
						continue
					}
					eb := r2.Energy(energy.TableFor(l1, l2, pes))
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
					st.Valid += 1 + naiveL1Headroom(sp, pes, bw, l1, l2)
				}
			}
		}
	}
}

// naiveL1Headroom is the naive loop's own count of the L1 capacities
// that dominate the exact requirement: a scan of the whole grid in its
// given order, pricing area and power at every capacity.
func naiveL1Headroom(sp Space, pes int, bw float64, l1, l2 int64) int64 {
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

// benchSpace is a single-threaded space with a wide bandwidth axis (16
// points), the workload the profile/price split targets.
func benchSpace() Space {
	sp := smallSpace()
	sp.Workers = 1
	sp.PEs = []int{64, 256}
	sp.BWs = []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192}
	return sp
}

// localSpaces are the sweeps of the e2ebench `local` workload, on one
// worker: KC-P, YR-P and YX-P with the /v1/dse knob and grid defaults,
// on zoo conv layers of different shapes, over PEs {64, 128, 256, 512}
// and a six-point bandwidth axis.
func localSpaces(t testing.TB) []Space {
	t.Helper()
	var out []Space
	for _, at := range []struct{ model, layer string }{
		{"VGG16", "CONV1"}, {"AlexNet", "CONV2"}, {"ResNet50", "CONV3_3x3"}, {"MobileNetV2", "B3_exp"},
	} {
		m, ok := models.ByName(at.model)
		if !ok {
			t.Fatalf("zoo model %s not found", at.model)
		}
		li, ok := m.Find(at.layer)
		if !ok {
			t.Fatalf("layer %s not found in %s", at.layer, at.model)
		}
		for _, tmpl := range []Template{
			{Name: "KC-P", Build: dataflows.KCPSized, P1: []int{16, 64, 256}, P2: []int{8, 32}},
			{Name: "YR-P", Build: dataflows.YRPSized, P1: []int{16, 64, 256}, P2: []int{8, 32}},
			{Name: "YX-P", Build: func(p1, _ int) dataflow.Dataflow { return dataflows.YXPSized(p1) },
				P1: []int{16, 64, 256}, P2: []int{1}},
		} {
			out = append(out, Space{
				Layer:         li.Layer,
				Template:      tmpl,
				PEs:           []int{64, 128, 256, 512},
				BWs:           []float64{4, 8, 16, 32, 64, 128},
				L1Grid:        DefaultGrid(64, 1<<16, 2),
				L2Grid:        DefaultGrid(1<<12, 1<<22, 2),
				AreaBudgetMM2: 16,
				PowerBudgetMW: 450,
				Cost:          hw.Default28nm(),
				Workers:       1,
			})
		}
	}
	return out
}

// headroomSpaces vary the first local sweep's L1 grid and budgets to
// cover the edges of the L1 headroom count: an unsorted grid with a
// duplicate capacity that holds the sweep's exact L1 requirements
// among powers of two, a grid of which no capacity fits the budget
// (only the exact requirements do), and a budget every capacity fits.
func headroomSpaces(t testing.TB) (unsorted, noneFits, allFit Space) {
	t.Helper()
	base := localSpaces(t)[0]
	unsorted, noneFits, allFit = base, base, base
	pts, _ := Explore(base)
	var reqs []int64
	for _, p := range pts {
		reqs = append(reqs, p.L1Bytes)
	}
	slices.Sort(reqs)
	reqs = slices.Compact(reqs)
	slices.Reverse(reqs)
	unsorted.L1Grid = append([]int64{4096, 64, 1 << 16}, reqs...)
	unsorted.L1Grid = append(unsorted.L1Grid, reqs[len(reqs)/2], 1024, 256)
	noneFits.L1Grid = []int64{1 << 22, 1 << 20, 1 << 21}
	allFit.AreaBudgetMM2, allFit.PowerBudgetMW = math.Inf(1), math.Inf(1)
	return unsorted, noneFits, allFit
}

// TestNaiveExploreAgrees pins the baseline to the optimized path: same
// points in the same order, same explored, priced and valid counts, so
// the benchmark compares equal work. It covers the benchmark's space,
// the local sweeps, where every mapping prices its L2 candidates once
// for the whole bandwidth axis, and the L1 headroom edges.
func TestNaiveExploreAgrees(t *testing.T) {
	unsorted, noneFits, allFit := headroomSpaces(t)
	spaces := append([]Space{benchSpace()}, localSpaces(t)...)
	spaces = append(spaces, unsorted, noneFits, allFit)
	for _, sp := range spaces {
		at := sp.Template.Name + "/" + sp.Layer.Name
		gridPerMapping := int64(len(sp.L1Grid)) * int64(len(sp.L2Grid))
		var naivePts []Point
		var naiveStats Stats
		for _, pes := range sp.PEs {
			naiveExplorePEs(sp, pes, gridPerMapping, &naivePts, &naiveStats)
		}
		pts, stats := Explore(sp)
		if len(pts) == 0 {
			t.Fatalf("%s: no valid design", at)
		}
		if len(pts) != len(naivePts) {
			t.Fatalf("%s: point count: optimized %d, naive %d", at, len(pts), len(naivePts))
		}
		// The naive loop runs one Analyze per bandwidth point, which is
		// what the optimized path counts as priced.
		if stats.Explored != naiveStats.Explored || stats.Valid != naiveStats.Valid ||
			stats.Priced != naiveStats.Invoked {
			t.Fatalf("%s: stats diverge: optimized %+v, naive %+v", at, stats, naiveStats)
		}
		for i := range pts {
			if pts[i] != naivePts[i] {
				t.Fatalf("%s: point %d diverges:\noptimized %+v\nnaive     %+v", at, i, pts[i], naivePts[i])
			}
		}
	}
	// The headroom edges are what they claim: with no grid capacity
	// fitting, each point counts once; with every one fitting, each
	// counts the grid capacities at or above its requirement, itself
	// included.
	if pts, stats := Explore(noneFits); stats.Valid != int64(len(pts)) {
		t.Errorf("no L1 capacity fits: Valid %d, want one per point (%d)", stats.Valid, len(pts))
	}
	pts, stats := Explore(allFit)
	var want int64
	for _, p := range pts {
		n := int64(0)
		for _, g := range allFit.L1Grid {
			if g >= p.L1Bytes {
				n++
			}
		}
		want += max(n, 1)
	}
	if stats.Valid != want {
		t.Errorf("every L1 capacity fits: Valid %d, want %d", stats.Valid, want)
	}
}

// TestExploreAllocsFlatInPoints checks that Explore's allocations do
// not grow with the points it returns: the points collect in pooled
// per-worker buffers and are copied once into a slice of the final
// size. A finer L2 grid nearly doubles the points of a local sweep and
// must allocate no more objects. Explore draws its profiler, pricing
// scratch and point buffers from sync.Pools, so the fewest allocations
// of several runs is the warm count; the race detector drops pooled
// objects at random, so the count is only checked without it.
func TestExploreAllocsFlatInPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	base := localSpaces(t)[0]
	finer := base
	finer.L2Grid = DefaultGrid(1<<12, 1<<22, math.Sqrt2)
	fewest := func(sp Space) (allocs float64, points int) {
		pts, _ := Explore(sp)
		allocs = math.Inf(1)
		for range 5 {
			allocs = min(allocs, testing.AllocsPerRun(1, func() { Explore(sp) }))
		}
		return allocs, len(pts)
	}
	baseAllocs, basePts := fewest(base)
	finerAllocs, finerPts := fewest(finer)
	if 2*finerPts < 3*basePts {
		t.Fatalf("finer L2 grid returns %d points, base %d: want at least 1.5x", finerPts, basePts)
	}
	if finerAllocs > baseAllocs {
		t.Errorf("%d points allocate %.0f objects, %d points %.0f: allocations grow with the points",
			finerPts, finerAllocs, basePts, baseAllocs)
	}
	t.Logf("%d points: %.0f allocations; %d points: %.0f", basePts, baseAllocs, finerPts, finerAllocs)
}

// TestExploreConcurrent runs two two-worker Explores of one space at
// once and checks each against a serial run: the profiler's per-depth
// scratch and Explore's point buffers are pooled state that concurrent
// sweeps must not share.
func TestExploreConcurrent(t *testing.T) {
	sp := localSpaces(t)[0]
	want, wantStats := Explore(sp)
	SortPoints(want)
	wantStats.Elapsed = 0
	sp.Workers = 2
	var wg sync.WaitGroup
	got := make([][]Point, 2)
	gotStats := make([]Stats, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], gotStats[i] = Explore(sp)
		}()
	}
	wg.Wait()
	for i := range got {
		SortPoints(got[i])
		gotStats[i].Elapsed = 0
		if !reflect.DeepEqual(got[i], want) || gotStats[i] != wantStats {
			t.Errorf("concurrent Explore %d: %d points %+v, serial %d points %+v",
				i, len(got[i]), gotStats[i], len(want), wantStats)
		}
	}
}

// BenchmarkExplore measures explored designs/sec on a 16-point bandwidth
// axis, three ways:
//
//   - ProfileOnce: the production shape — a warm shared ProfileCache (what
//     serve and the fleet run with) and one PriceBatch walk per mapping,
//     so each op measures the steady-state batch-pricing path.
//   - ColdProfile: every mapping profiled fresh each op (no cache), the
//     honest cold-start number including the cluster walks.
//   - AnalyzePerPoint: the pre-refactor loop, one full core.Analyze per
//     bandwidth point.
//
// ColdLocal is the e2ebench `local` dse class: one cold sweep per op,
// cycling through localSpaces.
func BenchmarkExplore(b *testing.B) {
	sp := benchSpace()
	b.Run("ProfileOnce", func(b *testing.B) {
		warm := sp
		warm.Profiles = core.NewProfileCache(256)
		Explore(warm) // populate the cache; ops below measure steady state
		b.ResetTimer()
		var explored int64
		for i := 0; i < b.N; i++ {
			_, stats := Explore(warm)
			explored += stats.Explored
		}
		b.ReportMetric(float64(explored)/b.Elapsed().Seconds(), "designs/sec")
	})
	b.Run("ColdProfile", func(b *testing.B) {
		var explored int64
		for i := 0; i < b.N; i++ {
			_, stats := Explore(sp)
			explored += stats.Explored
		}
		b.ReportMetric(float64(explored)/b.Elapsed().Seconds(), "designs/sec")
	})
	b.Run("ColdLocal", func(b *testing.B) {
		spaces := localSpaces(b)
		var explored int64
		for i := 0; i < b.N; i++ {
			_, stats := Explore(spaces[i%len(spaces)])
			explored += stats.Explored
		}
		b.ReportMetric(float64(explored)/b.Elapsed().Seconds(), "designs/sec")
	})
	b.Run("AnalyzePerPoint", func(b *testing.B) {
		gridPerMapping := int64(len(sp.L1Grid)) * int64(len(sp.L2Grid))
		var explored int64
		for i := 0; i < b.N; i++ {
			var pts []Point
			var stats Stats
			for _, pes := range sp.PEs {
				naiveExplorePEs(sp, pes, gridPerMapping, &pts, &stats)
			}
			explored += stats.Explored
		}
		b.ReportMetric(float64(explored)/b.Elapsed().Seconds(), "designs/sec")
	})
}
