package tuner

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// -update rewrites testdata/templates.golden from the current tuner.
var update = flag.Bool("update", false, "rewrite testdata/templates.golden")

// zooLayer is one unique layer shape of the model zoo.
type zooLayer struct {
	id    string // model/layer of its first appearance
	layer tensor.Layer
}

// zooLayers lists every unique layer shape of the zoo (a layer is its
// shape, strides, operator and densities; the name is not part of it),
// in Zoo order and then model order, each under its first appearance.
func zooLayers() []zooLayer {
	var out []zooLayer
	seen := map[tensor.Layer]bool{}
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			shape := li.Layer.Normalize()
			shape.Name = ""
			if seen[shape] {
				continue
			}
			seen[shape] = true
			out = append(out, zooLayer{id: name + "/" + li.Layer.Name, layer: li.Layer})
		}
	}
	return out
}

// pickLine renders one pick: the dataflow name, the runtime and the
// bits of the on-chip energy, or "none" when nothing maps the layer.
func pickLine(ch Choice, err error) string {
	if err != nil {
		return "none"
	}
	return fmt.Sprintf("%s\t%d\t%016x", ch.Dataflow.Name, ch.Result.Runtime,
		math.Float64bits(ch.Result.EnergyDefault().OnChip()))
}

// TestTemplatesGolden pins the template scan (Budget 0, the setting of
// every caller that does not ask for a free-form search): for every
// unique zoo layer on Accel256, the pick under each objective and under
// MinRuntime with a 64 KiB L2 cap.
func TestTemplatesGolden(t *testing.T) {
	cfg := hw.Accel256()
	opts := []struct {
		tag string
		opt Options
	}{
		{"runtime", Options{Objective: MinRuntime}},
		{"energy", Options{Objective: MinEnergy}},
		{"edp", Options{Objective: MinEDP}},
		{"runtime,l2<=64KiB", Options{Objective: MinRuntime, MaxL2Bytes: 64 << 10}},
	}
	var got bytes.Buffer
	for _, zl := range zooLayers() {
		for _, o := range opts {
			ch, err := TuneLayer(zl.layer, cfg, o.opt)
			fmt.Fprintf(&got, "%s\t%s\t%s\n", zl.id, o.tag, pickLine(ch, err))
		}
	}
	golden := filepath.Join("testdata", "templates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	diffLines(t, got.Bytes(), want)
}

// diffLines fails with the first lines that differ.
func diffLines(t *testing.T, got, want []byte) {
	t.Helper()
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	bad := 0
	for i := 0; i < max(len(g), len(w)) && bad < 10; i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl, wl)
			bad++
		}
	}
}

// TestFreeFormGolden: the free-form phase visits exactly the candidates
// of the standalone mapping searcher it replaced. testdata/freeform.golden
// was recorded from that searcher (every 13th unique zoo layer on
// Accel256 and on an 8-PE variant, whose resolver refuses the 16-PE
// clusters; each strategy and objective at budget 500, seed 7): its
// winner, runtime, energy bits, evaluations and rejections. The merged
// search must reproduce each one, except that it keeps the template
// pick wherever that scores lower or equal. The file is a frozen record
// and has no -update.
func TestFreeFormGolden(t *testing.T) {
	cfgs := map[string]hw.Config{"256": hw.Accel256()}
	small := hw.Accel256()
	small.Name, small.NumPEs = "Accel8", 8
	cfgs["8"] = small
	layers := map[string]tensor.Layer{}
	for _, zl := range zooLayers() {
		layers[zl.id] = zl.layer
	}
	strategies := map[string]Strategy{"exhaustive": Exhaustive, "random": RandomSample, "hillclimb": HillClimb}
	objectives := map[string]Objective{"runtime": MinRuntime, "energy": MinEnergy, "edp": MinEDP}

	raw, err := os.ReadFile(filepath.Join("testdata", "freeform.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	freeFormWins := 0
	for _, line := range lines {
		f := strings.Split(line, "\t")
		if len(f) != 9 {
			t.Fatalf("malformed golden line %q", line)
		}
		l, cfg := layers[f[0]], cfgs[f[1]]
		opt := Options{Objective: objectives[f[3]], Budget: 500, Strategy: strategies[f[2]], Seed: 7}
		want := strings.Join(f[4:7], "\t")
		runtime, _ := strconv.ParseInt(f[5], 10, 64)
		ebits, _ := strconv.ParseUint(f[6], 16, 64)
		e := math.Float64frombits(ebits)
		wantScore := [...]float64{MinRuntime: float64(runtime), MinEnergy: e, MinEDP: e * float64(runtime)}[opt.Objective]

		tmpl, terr := TuneLayer(l, cfg, Options{Objective: opt.Objective})
		s := newSearcher(context.Background(), l, cfg.Normalize(), opt)
		s.tune()
		got, err := s.result()
		if terr == nil && tmpl.Score <= wantScore {
			want = pickLine(tmpl, nil)
		} else {
			freeFormWins++
		}
		if g := pickLine(got, err); g != want {
			t.Errorf("%s on %s PEs, %s %s:\n got %s\nwant %s", f[0], f[1], f[2], f[3], g, want)
		}
		if gs := fmt.Sprintf("%d\t%d", s.evaluated, s.invalid); gs != f[7]+"\t"+f[8] {
			t.Errorf("%s on %s PEs, %s %s: evaluated, invalid = %s, want %s\t%s", f[0], f[1], f[2], f[3], gs, f[7], f[8])
		}
	}
	t.Logf("the free-form phase beat the template pick in %d of %d searches", freeFormWins, len(lines))
	if freeFormWins == 0 || freeFormWins == len(lines) {
		t.Errorf("free-form search won %d of %d searches; the golden should exercise both outcomes", freeFormWins, len(lines))
	}
}
