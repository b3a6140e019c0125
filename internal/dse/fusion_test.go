package dse

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
)

func fusionSpace() FusionSpace {
	cfg := hw.Accel256()
	cfg.L2Size = 256 << 10
	return FusionSpace{
		Model:          models.GoogLeNet(),
		Cfg:            cfg.Normalize(),
		Dataflow:       "KC-P",
		L2Grid:         []int64{0, 256 << 10},
		MaxGroupLayers: []int{1, 8},
	}
}

// TestExploreFusionGoogLeNet sweeps the fusion plane's four corners:
// the sentinel must collapse to the per-layer sum, granularity 1 must
// fuse nothing, and the fused corner must beat its own baseline.
func TestExploreFusionGoogLeNet(t *testing.T) {
	points, stats, err := ExploreFusion(fusionSpace())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Raw != 4 || stats.Valid != 4 || len(points) != 4 {
		t.Fatalf("stats = %+v with %d points, want 4/4", stats, len(points))
	}
	for i, p := range points[1:] {
		prev := points[i]
		if prev.L2Bytes > p.L2Bytes ||
			(prev.L2Bytes == p.L2Bytes && prev.MaxGroupLayers >= p.MaxGroupLayers) {
			t.Fatalf("points out of canonical order at %d: %+v then %+v", i, prev, p)
		}
	}
	for _, p := range points {
		switch {
		case p.L2Bytes == 0:
			if p.DRAMTraffic != p.BaselineDRAM || p.FusedGroups != 0 || p.DRAMSaved != 0 {
				t.Fatalf("sentinel point fused: %+v", p)
			}
		case p.MaxGroupLayers == 1:
			if p.FusedGroups != 0 {
				t.Fatalf("granularity-1 point fused %d groups", p.FusedGroups)
			}
		default:
			if p.FusedGroups == 0 || p.DRAMSaved <= 0 {
				t.Fatalf("fused corner saved nothing: %+v", p)
			}
			if got := p.SavedFrac(); got <= 0 || got >= 1 {
				t.Fatalf("SavedFrac = %v", got)
			}
		}
	}
	best, ok := BestFusion(points)
	if !ok {
		t.Fatal("BestFusion found nothing")
	}
	for _, p := range points {
		if p.DRAMTraffic < best.DRAMTraffic {
			t.Fatalf("best %+v beaten by %+v", best, p)
		}
	}
}

// TestExploreFusionWorkersAgree runs one fixed-dataflow fusion sweep
// with four workers, then with one: the cells share
// core.DefaultProfileCache concurrently (the four-worker run goes
// first, so its cells race on the same profiles), and the points must
// agree exactly.
func TestExploreFusionWorkersAgree(t *testing.T) {
	sp := FusionSpace{
		Model:          models.MobileNetV2(),
		Cfg:            hw.Accel256().Normalize(),
		Dataflow:       "YR-P",
		L2Grid:         []int64{0, 64 << 10, 256 << 10, 1 << 20},
		MaxGroupLayers: []int{1, 4},
	}
	run := func(workers int) ([]FusionPoint, FusionStats) {
		sp := sp
		sp.Workers = workers
		points, stats, err := ExploreFusion(sp)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return points, stats
	}
	par, parStats := run(4)
	seq, seqStats := run(1)
	if parStats.Valid != seqStats.Valid || parStats.Raw != seqStats.Raw {
		t.Fatalf("stats differ: workers=4 %+v, workers=1 %+v", parStats, seqStats)
	}
	if len(seq) == 0 {
		t.Fatal("sweep priced no point")
	}
	if !reflect.DeepEqual(par, seq) {
		t.Fatalf("points differ:\nworkers=4 %+v\nworkers=1 %+v", par, seq)
	}
}

// TestExploreFusionErrors pins the sweep-level failure modes.
func TestExploreFusionErrors(t *testing.T) {
	sp := fusionSpace()
	sp.Dataflow = "NOPE-P"
	if _, _, err := ExploreFusion(sp); err == nil {
		t.Fatal("unknown dataflow accepted")
	}
	sp = fusionSpace()
	sp.L2Grid = []int64{-1}
	if _, _, err := ExploreFusion(sp); err == nil {
		t.Fatal("negative budget accepted")
	}
	sp = fusionSpace()
	sp.Model = models.Model{Name: "empty"}
	if _, _, err := ExploreFusion(sp); err == nil {
		t.Fatal("empty model accepted")
	}
}

// TestPartitionFusionGrid checks the shard cut: contiguous, disjoint,
// non-empty, covering, for every target from degenerate to oversize.
func TestPartitionFusionGrid(t *testing.T) {
	grid := []int64{0, 1, 2, 3, 4, 5, 6}
	for _, target := range []int{-1, 1, 2, 3, 7, 100} {
		chunks := PartitionFusionGrid(grid, target)
		want := target
		if want < 1 {
			want = 1
		}
		if want > len(grid) {
			want = len(grid)
		}
		if len(chunks) != want {
			t.Fatalf("target %d: %d chunks, want %d", target, len(chunks), want)
		}
		var flat []int64
		for _, c := range chunks {
			if len(c) == 0 {
				t.Fatalf("target %d: empty chunk", target)
			}
			flat = append(flat, c...)
		}
		if len(flat) != len(grid) {
			t.Fatalf("target %d: cover has %d entries", target, len(flat))
		}
		for i := range flat {
			if flat[i] != grid[i] {
				t.Fatalf("target %d: cover reorders: %v", target, flat)
			}
		}
	}
	if got := PartitionFusionGrid(nil, 3); got != nil {
		t.Fatalf("nil grid gave %v", got)
	}
}
