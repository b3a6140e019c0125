package netsched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// edgeCfg is the 256 KiB-L2 configuration the acceptance criterion is
// stated against.
func edgeCfg() hw.Config {
	cfg := hw.Accel256()
	cfg.L2Size = 256 << 10
	return cfg
}

func TestFusedGoogLeNetAcceptance(t *testing.T) {
	m := models.GoogLeNet()
	cfg := edgeCfg()
	s, err := RunFused(m, cfg, FuseOptions{Options: Options{L2Bytes: 256 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if s.FusedGroups() == 0 {
		t.Fatal("no fused groups on GoogLeNet at 256 KiB")
	}
	saving := 1 - float64(s.ActTraffic)/float64(s.BaselineAct)
	if saving < 0.25 {
		t.Errorf("activation traffic saving %.1f%% < 25%% (fused %d, baseline %d)",
			100*saving, s.ActTraffic, s.BaselineAct)
	}
	if s.DRAMTraffic > s.BaselineDRAM {
		t.Errorf("fused DRAM %d exceeds per-layer baseline %d", s.DRAMTraffic, s.BaselineDRAM)
	}
	if s.DRAMSaved != s.BaselineDRAM-s.DRAMTraffic {
		t.Errorf("DRAMSaved %d != baseline-fused %d", s.DRAMSaved, s.BaselineDRAM-s.DRAMTraffic)
	}
	for _, g := range s.Groups {
		if g.Fused && g.L2PeakBytes > s.L2Bytes {
			t.Errorf("group [%d,%d] peak %d exceeds L2 %d", g.Lo, g.Hi, g.L2PeakBytes, s.L2Bytes)
		}
	}
}

// TestFusedGroupsPartition checks the DP output is a contiguous partition
// of the layer list with consistent per-group bookkeeping.
func TestFusedGroupsPartition(t *testing.T) {
	for _, m := range []models.Model{chain(), models.GoogLeNet(), models.ResNet50()} {
		s, err := RunFused(m, edgeCfg(), FuseOptions{Options: Options{L2Bytes: 256 << 10}})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		next := 0
		for _, g := range s.Groups {
			if g.Lo != next || g.Hi < g.Lo {
				t.Fatalf("%s: group [%d,%d] breaks partition at %d", m.Name, g.Lo, g.Hi, next)
			}
			if len(g.Members) != g.Hi-g.Lo+1 {
				t.Errorf("%s: group [%d,%d] has %d members", m.Name, g.Lo, g.Hi, len(g.Members))
			}
			if g.Fused != (g.Hi > g.Lo) {
				t.Errorf("%s: group [%d,%d] fused=%v", m.Name, g.Lo, g.Hi, g.Fused)
			}
			for _, mb := range g.Members {
				if mb.Inst.Count != g.Count && g.Fused {
					t.Errorf("%s: group [%d,%d] member %d count %d != group %d",
						m.Name, g.Lo, g.Hi, mb.Index, mb.Inst.Count, g.Count)
				}
			}
			next = g.Hi + 1
		}
		if next != len(m.Layers) {
			t.Errorf("%s: partition covers %d of %d layers", m.Name, next, len(m.Layers))
		}
	}
}

// TestFusedSentinelMatchesPerLayerSum pins the L2Bytes=0 contract: no
// fusion, no retention, and DRAM traffic bit-identical to the plain
// per-layer schedule.
func TestFusedSentinelMatchesPerLayerSum(t *testing.T) {
	for _, m := range []models.Model{chain(), models.GoogLeNet()} {
		for name, opt := range map[string]Options{
			"fixed": {Dataflow: fixedKCP},
			"tuned": {},
		} {
			fused, err := RunFused(m, hw.Accel256(), FuseOptions{Options: opt})
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, name, err)
			}
			plain, err := Run(m, hw.Accel256(), opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, name, err)
			}
			if fused.FusedGroups() != 0 {
				t.Errorf("%s/%s: %d fused groups despite L2Bytes=0", m.Name, name, fused.FusedGroups())
			}
			if fused.DRAMTraffic != plain.DRAMTraffic {
				t.Errorf("%s/%s: sentinel DRAM %d != per-layer sum %d",
					m.Name, name, fused.DRAMTraffic, plain.DRAMTraffic)
			}
			if fused.BaselineDRAM != fused.DRAMTraffic {
				t.Errorf("%s/%s: baseline %d != traffic %d at sentinel",
					m.Name, name, fused.BaselineDRAM, fused.DRAMTraffic)
			}
		}
	}
}

// TestFusedMembersMatchEngine pins the cached fixed-dataflow path:
// every member of a fixed-dataflow schedule — layers priced from the
// shared profile cache and fused members' compact re-tunes alike — is
// bit-identical to a one-shot core.AnalyzeDataflow of its mapping, and
// so is every layer of the per-layer Run. The second pass schedules
// from a warm cache.
func TestFusedMembersMatchEngine(t *testing.T) {
	m := models.GoogLeNet()
	cfg := edgeCfg()
	check := func(what string, df dataflow.Dataflow, layer tensor.Layer, got *core.Result) {
		t.Helper()
		want, err := core.AnalyzeDataflow(df, layer, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: scheduled result differs from core.AnalyzeDataflow\nwant %+v\ngot  %+v", what, want, got)
		}
	}
	for pass := 0; pass < 2; pass++ {
		fused := 0
		for _, l2 := range []int64{0, 256 << 10} {
			s, err := RunFused(m, cfg, FuseOptions{Options: Options{L2Bytes: l2, Dataflow: fixedKCP}})
			if err != nil {
				t.Fatal(err)
			}
			fused += s.FusedGroups()
			for _, g := range s.Groups {
				for _, mb := range g.Members {
					check(mb.Inst.Layer.Name, mb.Dataflow, mb.Inst.Layer, mb.Result)
				}
			}
		}
		if fused == 0 {
			t.Fatal("no fused group: the compact re-tune path went unchecked")
		}
		plain, err := Run(m, cfg, Options{Dataflow: fixedKCP})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plain.Plans {
			check("Run "+p.Inst.Layer.Name, p.Dataflow, p.Inst.Layer, p.Result)
		}
	}
}

// TestFusedEnergyFromMembers re-sums every schedule's energy from its
// groups, in assemble's order: each member's on-chip energy priced from
// the Result it runs, then the group's DRAM traffic. Members carry their
// energy priced once per mapping, so a member that ran the compact or
// minimal-staging re-tune must carry that mapping's energy, not its
// base mapping's. Tuned schedules re-tune fused members; the two caps
// share one fuser.
func TestFusedEnergyFromMembers(t *testing.T) {
	m := models.GoogLeNet()
	cfg := edgeCfg()
	retuned := 0
	for _, df := range []func(tensor.Layer) (dataflow.Dataflow, bool){fixedKCP, nil} {
		for _, l2 := range []int64{0, 64 << 10, 256 << 10} {
			scheds, err := RunFusedCaps(m, cfg, Options{L2Bytes: l2, Dataflow: df}, []int{2, 8})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range scheds {
				var want float64
				for _, g := range s.Groups {
					for _, mb := range g.Members {
						want += mb.Result.EnergyDefault().OnChip() * float64(mb.Inst.Count)
						if df == nil && g.Fused {
							retuned++
						}
					}
					want += float64((g.DRAMReads+g.DRAMWrites)*int64(g.Count)) * energy.DRAMPJ
				}
				if s.EnergyPJ != want {
					t.Errorf("fixed=%v L2 %d: EnergyPJ %v, re-summed from the members %v", df != nil, l2, s.EnergyPJ, want)
				}
			}
		}
	}
	if retuned == 0 {
		t.Fatal("no fused member under a tuned schedule: the re-tuned energies went unchecked")
	}
}

// BenchmarkRunFused schedules GoogLeNet at 256 KiB with a fixed KC-P
// mapping on a warm profile cache: the per-cell cost of a fusion sweep,
// where every cell re-maps the same layers on the same hardware.
func BenchmarkRunFused(b *testing.B) {
	m := models.GoogLeNet()
	opt := FuseOptions{Options: Options{L2Bytes: 256 << 10, Dataflow: fixedKCP}}
	if _, err := RunFused(m, edgeCfg(), opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFused(m, edgeCfg(), opt); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFusedRejectsNegativeL2(t *testing.T) {
	if _, err := RunFused(chain(), hw.Accel256(), FuseOptions{Options: Options{L2Bytes: -1}}); err == nil {
		t.Error("negative L2Bytes accepted")
	}
}

func TestBuildGraphChainFallback(t *testing.T) {
	m := chain()
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Layers {
		if i > 0 && (len(g.Ins[i]) != 1 || g.Ins[i][0] != i-1) {
			t.Errorf("layer %d ins %v, want [%d]", i, g.Ins[i], i-1)
		}
	}
	if got := g.Roots(); len(got) != 1 || got[0] != 0 {
		t.Errorf("roots %v, want [0]", got)
	}
	if _, err := BuildGraph(models.Model{Name: "empty"}); err == nil {
		t.Error("empty model accepted")
	}
}

func TestBuildGraphDedup(t *testing.T) {
	m := chain()
	m.Edges = []models.ActEdge{{From: 0, To: 1}, {From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Outs[0]) != 1 {
		t.Errorf("duplicate edge kept: outs[0]=%v", g.Outs[0])
	}
}

func TestCheckFusible(t *testing.T) {
	g, err := BuildGraph(models.GoogLeNet())
	if err != nil {
		t.Fatal(err)
	}
	// Within an inception module the branches compose (3..8 is module 3a).
	if !checkFusible(g, 3, 8) {
		t.Error("inception module 3a rejected")
	}
	// The stem CONV1 -> CONV2r crosses an (omitted) maxpool: the consumer
	// needs fewer rows than the producer emits, so fusing would drop data.
	if checkFusible(g, 0, 1) {
		t.Error("pooling-boundary edge accepted")
	}
	n := len(g.Model.Layers)
	// The classifier is an FC layer: not a windowed-spatial operator.
	if checkFusible(g, n-2, n-1) {
		t.Error("FC layer accepted into a fused group")
	}
}

func TestCheckFusibleCountMismatch(t *testing.T) {
	m := chain()
	m.Layers[1].Count = 3
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if checkFusible(g, 0, 1) {
		t.Error("count mismatch accepted")
	}
}

// TestFusedChainSavesTraffic checks the simplest positive case: a linear
// chain whose activations fit fuses and moves less DRAM than per-layer.
func TestFusedChainSavesTraffic(t *testing.T) {
	s, err := RunFused(chain(), hw.Accel256(), FuseOptions{Options: Options{L2Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if s.FusedGroups() == 0 {
		t.Fatal("chain did not fuse at 1 MiB")
	}
	if s.DRAMTraffic >= s.BaselineDRAM {
		t.Errorf("fused chain DRAM %d not below baseline %d", s.DRAMTraffic, s.BaselineDRAM)
	}
}

// TestOverlappingResidualsHeldOnce is the regression test for the
// double-count fix: two skip edges sharing one source activation pin its
// bytes once, not twice.
func TestOverlappingResidualsHeldOnce(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	one, err := Run(m, cfg, Options{
		Dataflow: fixedKCP, L2Bytes: 1 << 20,
		Residuals: []Edge{{From: 0, To: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(m, cfg, Options{
		Dataflow: fixedKCP, L2Bytes: 1 << 20,
		Residuals: []Edge{{From: 0, To: 2}, {From: 0, To: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The overlapping edge adds no pressure: the source is live through
	// layer 3 either way, so held bytes and traffic must match exactly.
	for i := range one.Plans {
		if one.Plans[i].HeldBytes != two.Plans[i].HeldBytes {
			t.Errorf("layer %d held %d with one edge, %d with overlapping edges",
				i, one.Plans[i].HeldBytes, two.Plans[i].HeldBytes)
		}
	}
	if one.DRAMTraffic != two.DRAMTraffic {
		t.Errorf("overlapping residuals changed traffic: %d vs %d",
			one.DRAMTraffic, two.DRAMTraffic)
	}
	// And the held capacity is exactly one copy of layer 0's output.
	want := scaled(m.Layers[0].Layer, tensor.Output, cfg.Normalize())
	if two.Plans[1].HeldBytes != want {
		t.Errorf("held %d bytes, want one copy = %d", two.Plans[1].HeldBytes, want)
	}
}

// TestIntervalCostMatchesOracle prices every interval of at most eight
// layers of every zoo model — under KC-P, YR-P, X-P and the tuner, at
// 64 KiB, 256 KiB and 1 MiB — and checks legality, cost and external
// tensors against the map-based oracle in oracle_test.go. The goldens
// pin only the intervals a schedule picks; this pins every one.
func TestIntervalCostMatchesOracle(t *testing.T) {
	fused := 0
	for _, name := range models.Zoo() {
		m, ok := models.ByName(name)
		if !ok {
			t.Fatalf("zoo model %s not found", name)
		}
		for _, dfName := range []string{"KC-P", "YR-P", "X-P", "tuned"} {
			var opt Options
			if dfName != "tuned" {
				df := dataflows.Get(dfName)
				opt.Dataflow = func(tensor.Layer) (dataflow.Dataflow, bool) { return df, true }
			}
			for _, l2 := range []int64{64 << 10, 256 << 10, 1 << 20} {
				opt.L2Bytes = l2
				f, err := newFuser(m, hw.Accel256(), opt)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, dfName, err)
				}
				for hi := range m.Layers {
					for lo := hi; lo >= 0 && hi-lo < 8; lo-- {
						at := fmt.Sprintf("%s/%s/%d [%d,%d]", name, dfName, l2, lo, hi)
						if lo < hi && checkFusible(f.g, lo, hi) != oracleCheckFusible(f.g, lo, hi) {
							t.Fatalf("%s: checkFusible disagrees with the oracle", at)
						}
						got := f.intervalCost(lo, hi)
						want, ext := oracleIntervalCost(f, lo, hi)
						if got != want {
							t.Fatalf("%s:\ngot  %+v\nwant %+v", at, got, want)
						}
						if got.fused {
							fused++
							if keys := f.externals(lo, hi); !reflect.DeepEqual(keys, ext) {
								t.Fatalf("%s: externals %v, oracle %v", at, keys, ext)
							}
						}
					}
				}
			}
		}
	}
	if fused == 0 {
		t.Fatal("no interval fused: the fused pricing went unchecked")
	}
	t.Logf("%d fused intervals checked", fused)
}

// maxAllocsPerInterval bounds what RunFused allocates per multi-layer
// interval its DP prices: the allocations a schedule at MaxGroupLayers 8
// makes beyond the same schedule at MaxGroupLayers 1 (which prices
// singletons only), over the intervals the larger cap adds. Pricing an
// interval allocates nothing; a larger cap adds one external-tensor
// list per fused group, and a fused group spans several intervals. The
// bound is taken over the whole zoo, so the per-layer pricing's pooled
// scratch, which the race detector's pool sometimes drops, averages out.
const maxAllocsPerInterval = 0.25

// TestRunFusedAllocsPerInterval checks that the partition DP allocates
// per layer and per group, never per interval it prices: on every zoo
// model under KC-P, YR-P and X-P at 256 KiB, pricing every interval of
// at most eight layers allocates nothing, and RunFused stays within
// maxAllocsPerInterval.
func TestRunFusedAllocsPerInterval(t *testing.T) {
	cfg := hw.Accel256()
	var added, intervals float64
	for _, name := range models.Zoo() {
		m, ok := models.ByName(name)
		if !ok {
			t.Fatalf("zoo model %s not found", name)
		}
		n := len(m.Layers)
		for _, dfName := range []string{"KC-P", "YR-P", "X-P"} {
			df := dataflows.Get(dfName)
			opt := Options{L2Bytes: 256 << 10, Dataflow: func(tensor.Layer) (dataflow.Dataflow, bool) { return df, true }}
			f, err := newFuser(m, cfg, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dfName, err)
			}
			priced := 0
			price := func() {
				priced = 0
				for hi := 0; hi < n; hi++ {
					for lo := hi; lo >= 0 && hi-lo < 8; lo-- {
						f.intervalCost(lo, hi)
						priced++
					}
				}
			}
			if a := testing.AllocsPerRun(2, price); a != 0 {
				t.Errorf("%s/%s: pricing %d intervals allocated %.0f times, want none", name, dfName, priced, a)
			}
			schedule := func(cap int) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := RunFused(m, cfg, FuseOptions{Options: opt, MaxGroupLayers: cap}); err != nil {
						t.Fatalf("%s/%s: %v", name, dfName, err)
					}
				})
			}
			added += schedule(8) - schedule(1)
			intervals += float64(priced - n)
		}
	}
	if intervals == 0 {
		t.Fatal("no multi-layer interval priced")
	}
	perInterval := added / intervals
	if perInterval > maxAllocsPerInterval {
		t.Errorf("RunFused allocates %.3f per multi-layer interval priced, want <= %v", perInterval, maxAllocsPerInterval)
	}
	t.Logf("%.0f multi-layer intervals; %.3f allocations each", intervals, perInterval)
}
