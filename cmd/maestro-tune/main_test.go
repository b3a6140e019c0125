package main

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestRunZooModel: -model resolves through the zoo, BERT-Base included,
// and the tuned file parses back as a network of the model's layer
// shapes, each with its dataflow.
func TestRunZooModel(t *testing.T) {
	var out, log bytes.Buffer
	if err := run([]string{"-model", "BERT-Base"}, &out, &log); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, log.String())
	}
	net, err := dataflow.ParseNetwork(out.String())
	if err != nil {
		t.Fatalf("tuned file does not parse: %v\n%s", err, out.String())
	}
	m, _ := models.ByName("BERT-Base")
	if len(net.Layers) != len(m.Layers) {
		t.Fatalf("tuned %d layers, model has %d", len(net.Layers), len(m.Layers))
	}
	for i, ls := range net.Layers {
		if ls.Layer.Sizes != m.Layers[i].Layer.Sizes || len(ls.Dataflow.Directives) == 0 {
			t.Errorf("layer %d: sizes %v with %d directives, want sizes %v and a dataflow",
				i, ls.Layer.Sizes, len(ls.Dataflow.Directives), m.Layers[i].Layer.Sizes)
		}
	}
}

// TestRunUnknownModel: an unknown name is refused with the zoo listed.
func TestRunUnknownModel(t *testing.T) {
	err := run([]string{"-model", "NoSuchNet"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, name := range models.Zoo() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name zoo model %s", err, name)
		}
	}
}

// tuneOne runs the tool, parses its output back and checks that the
// single tuned layer re-analyzes to the runtime its comment states.
func tuneOne(t *testing.T, args ...string) (string, dataflow.LayerSpec) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	net, err := dataflow.ParseNetwork(out.String())
	if err != nil {
		t.Fatalf("tuned file does not parse: %v\n%s", err, out.String())
	}
	if len(net.Layers) != 1 {
		t.Fatalf("tuned %d layers, want 1", len(net.Layers))
	}
	ls := net.Layers[0]
	r, err := core.AnalyzeDataflow(ls.Dataflow, ls.Layer, hw.Accel256())
	if err != nil {
		t.Fatalf("tuned dataflow does not analyze: %v\n%s", err, out.String())
	}
	if want := fmt.Sprintf(": %d cycles", r.Runtime); !strings.Contains(out.String(), want) {
		t.Errorf("output does not state the re-analyzed runtime %q:\n%s", want, out.String())
	}
	return out.String(), ls
}

// TestRunLayer: -layer tunes one layer of a zoo model.
func TestRunLayer(t *testing.T) {
	_, ls := tuneOne(t, "-model", "VGG16", "-layer", "CONV5")
	li, _ := models.VGG16().Find("CONV5")
	if ls.Layer.Sizes != li.Layer.Sizes {
		t.Errorf("tuned sizes %v, want VGG16 CONV5's %v", ls.Layer.Sizes, li.Layer.Sizes)
	}
	if err := run([]string{"-model", "VGG16", "-layer", "NOPE"}, io.Discard, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "not in VGG16") {
		t.Errorf("unknown layer: %v", err)
	}
}

// TestRunDims: -dims with -stride tunes a custom convolution, and the
// output parses back to that layer.
func TestRunDims(t *testing.T) {
	_, ls := tuneOne(t, "-dims", "K:64,C:32,Y:30,X:30,R:3,S:3", "-stride", "2")
	want := tensor.Sizes{tensor.N: 1, tensor.K: 64, tensor.C: 32, tensor.Y: 30, tensor.X: 30, tensor.R: 3, tensor.S: 3}
	if ls.Layer.Sizes != want || ls.Layer.StrideY != 2 || ls.Layer.StrideX != 2 {
		t.Errorf("parsed layer %v stride %d/%d, want %v stride 2", ls.Layer.Sizes, ls.Layer.StrideY, ls.Layer.StrideX, want)
	}
	if err := run([]string{"-dims", "K:64,C"}, io.Discard, io.Discard); err == nil {
		t.Error("malformed -dims accepted")
	}
	if err := run([]string{"-dims", "K:64,C:32,Y:30,X:30,R:3,S:3", "-layer", "CONV5"}, io.Discard, io.Discard); err == nil {
		t.Error("-dims with -layer accepted")
	}
}

// TestRunBudget: a free-form search with a fixed seed writes the same
// bytes on every run, names the winning candidate in the layer's
// comment, and the written mapping re-analyzes to the stated runtime.
func TestRunBudget(t *testing.T) {
	args := []string{"-model", "VGG16", "-layer", "CONV5", "-budget", "200", "-strategy", "hillclimb", "-seed", "3"}
	a, _ := tuneOne(t, args...)
	b, _ := tuneOne(t, args...)
	if a != b {
		t.Errorf("two runs differ:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "// free-form search: hillclimb, budget 200, seed 3") ||
		!regexp.MustCompile(`(?m)^  // [NKCYXRS]{7} tiles=N\d+ K\d+ C\d+ Y\d+ X\d+ R\d+ S\d+ spatial=[KCYX]`).MatchString(a) {
		t.Errorf("output does not name the search and its winning candidate:\n%s", a)
	}
}

// TestRunUnknownStrategy: an unknown -strategy is refused.
func TestRunUnknownStrategy(t *testing.T) {
	err := run([]string{"-model", "VGG16", "-layer", "CONV5", "-strategy", "annealing"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown strategy "annealing"`) {
		t.Errorf("unknown strategy: %v", err)
	}
}
