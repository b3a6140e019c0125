package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/models"
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
