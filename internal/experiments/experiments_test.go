package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tuner"
)

// TestAllExperimentsRun smoke-tests every harness in quick mode.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in short mode")
	}
	for _, e := range All {
		if e.Name == "fig9" {
			continue // TestFig9Quick
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, Options{Quick: true}); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s: empty output", e.Name)
		}
	}
}

// TestFig9Quick runs the validation experiment on layer subsets and
// checks the paper's headline claim: the analytical model tracks the
// execution-driven reference within a few percent.
func TestFig9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in short mode")
	}
	var buf bytes.Buffer
	if err := Fig9(&buf, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "average absolute error") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	// Hard bound: the overall average error must be under the paper's
	// reported 3.9%.
	if !strings.Contains(out, "overall average absolute error") {
		t.Fatal("missing overall error line")
	}
}

// TestTable1MatchesPaper pins the generated reuse-opportunity entries to
// the paper's hand-built Table 1.
func TestTable1MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"K           y . y           I:multicast",
		"C           y y .           O:reduction",
		"R           y . .           I:multicast",
		"Y           . y y           F:multicast",
		"C              O:temporal-reduction",
		"Y              F:temporal-multicast",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q in:\n%s", want, out)
		}
	}
}

// TestFig10Shape asserts the qualitative findings of Figure 10 that the
// paper highlights: C-P collapses on early layers (channel starvation),
// and the adaptive dataflow beats every fixed one.
func TestFig10Shape(t *testing.T) {
	cfg := hw.Accel256()
	vgg := models.VGG16()
	conv1, _ := vgg.Find("CONV1")
	cp := analyzeOrSkip(dataflows.Get("C-P"), conv1.Layer, cfg)
	yxp := analyzeOrSkip(dataflows.Get("YX-P"), conv1.Layer, cfg)
	if cp == nil || yxp == nil {
		t.Fatal("analysis failed")
	}
	if cp.Utilization() > 0.05 {
		t.Errorf("C-P on a 3-channel layer should starve: %.1f%%", 100*cp.Utilization())
	}
	if yxp.Runtime >= cp.Runtime {
		t.Errorf("YX-P (%d) should beat C-P (%d) on the early layer", yxp.Runtime, cp.Runtime)
	}

	// Adaptive <= best fixed on any model subset.
	m := models.Model{Name: "sub", Layers: vgg.Layers[:4]}
	var bestFixed int64
	for i, df := range dataflows.All() {
		rt := tuner.Sum(m, tuner.Fixed(df, cfg)).Runtime
		if i == 0 || rt < bestFixed {
			bestFixed = rt
		}
	}
	ad := tuner.Sum(m, tuner.Best(dataflows.All(), cfg, tuner.MinRuntime))
	if ad.Runtime > bestFixed {
		t.Errorf("adaptive (%d) worse than best fixed (%d)", ad.Runtime, bestFixed)
	}
}

// TestHeteroBeatsHomogeneousOnMixedModel: MobileNetV2 mixes point-wise
// and depth-wise operators with opposite dataflow preferences, the
// paper's motivating case, so the YX-P+KC-P chip's latency is at most
// either homogeneous chip's.
func TestHeteroBeatsHomogeneousOnMixedModel(t *testing.T) {
	m := models.MobileNetV2()
	het, _ := chip(m, []dataflow.Dataflow{dataflows.Get("YX-P"), dataflows.Get("KC-P")}, subAccel(128))
	for _, name := range []string{"YX-P", "KC-P"} {
		df := dataflows.Get(name)
		hom, _ := chip(m, []dataflow.Dataflow{df, df}, subAccel(128))
		if het.Unmapped > 0 || hom.Unmapped > 0 {
			t.Fatalf("unmapped layers: heterogeneous %d, homogeneous %s %d", het.Unmapped, name, hom.Unmapped)
		}
		if het.Runtime > hom.Runtime {
			t.Errorf("heterogeneous latency %d worse than homogeneous %s %d", het.Runtime, name, hom.Runtime)
		}
	}
}

// TestHeteroLoadsSumToLatency: on MobileNetV2 both sub-accelerators
// carry load, the loads partition the latency, and the pipelined bound
// is at most the latency.
func TestHeteroLoadsSumToLatency(t *testing.T) {
	m := models.MobileNetV2()
	het, loads := chip(m, []dataflow.Dataflow{dataflows.Get("YX-P"), dataflows.Get("KC-P")}, subAccel(128))
	if len(het.Choices) != len(m.Layers) || het.Unmapped != 0 {
		t.Fatalf("%d choices, %d unmapped; want %d and 0", len(het.Choices), het.Unmapped, len(m.Layers))
	}
	var sum int64
	for i, l := range loads {
		if l <= 0 {
			t.Errorf("sub-accelerator %d carries no load", i)
		}
		sum += l
	}
	if sum != het.Runtime {
		t.Errorf("per-accelerator loads %d != latency %d", sum, het.Runtime)
	}
	if bound := slices.Max(loads); bound > het.Runtime {
		t.Errorf("pipeline bound %d over latency %d", bound, het.Runtime)
	}
}

// TestHomogeneousPipelineEqualsLatencyOnOneStage: a one-candidate chip
// runs every layer on its one sub-accelerator, so its bound is its
// latency.
func TestHomogeneousPipelineEqualsLatencyOnOneStage(t *testing.T) {
	m := models.Model{Name: "three", Layers: models.MobileNetV2().Layers[:3]}
	het, loads := chip(m, []dataflow.Dataflow{dataflows.Get("KC-P")}, subAccel(64))
	if len(loads) != 1 || loads[0] != het.Runtime || het.Runtime <= 0 {
		t.Errorf("single stage: loads %v, latency %d", loads, het.Runtime)
	}
}

// TestTable5Shape asserts the hardware-support findings of Table 5:
// removing multicast or spatial-reduction support costs energy, and
// shrinking bandwidth costs throughput.
func TestTable5Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := Table5(&buf, Options{}); err != nil {
		t.Fatal(err)
	}
	rows := parseTable5(t, buf.String())
	ref, small, nomc, nored := rows[0], rows[1], rows[2], rows[3]
	if small.throughput >= ref.throughput {
		t.Errorf("smaller bandwidth did not cost throughput: %v vs %v", small.throughput, ref.throughput)
	}
	if nomc.energy <= ref.energy {
		t.Errorf("removing multicast did not cost energy: %v vs %v", nomc.energy, ref.energy)
	}
	if nored.energy <= ref.energy {
		t.Errorf("removing reduction did not cost energy: %v vs %v", nored.energy, ref.energy)
	}
}

type t5row struct {
	throughput, energy float64
}

func parseTable5(t *testing.T, out string) []t5row {
	t.Helper()
	var rows []t5row
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 7 {
			continue
		}
		if f[0] != "Reference" && f[0] != "Small" && f[0] != "No" {
			continue
		}
		// columns: name... bw mc red throughput energy buffer
		n := len(f)
		var r t5row
		if _, err := fmtSscan(f[n-3], &r.throughput); err != nil {
			continue
		}
		if _, err := fmtSscan(f[n-2], &r.energy); err != nil {
			continue
		}
		rows = append(rows, r)
	}
	if len(rows) != 4 {
		t.Fatalf("parsed %d Table 5 rows from:\n%s", len(rows), out)
	}
	return rows
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}
