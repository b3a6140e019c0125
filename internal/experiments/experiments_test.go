package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
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
		mc := costOfModel(m, df, cfg)
		if i == 0 || mc.runtime < bestFixed {
			bestFixed = mc.runtime
		}
	}
	ad := bestPerLayer(m, cfg, func(r *core.Result) float64 { return float64(r.Runtime) })
	if ad.runtime > bestFixed {
		t.Errorf("adaptive (%d) worse than best fixed (%d)", ad.runtime, bestFixed)
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
