package serve

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/dse"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files with current output")

// dseGoldenCases are the /v1/dse bodies the wire golden pins: the
// fleet shard BenchmarkHandler sends, an e2ebench serve request, a
// full and a half PE axis (the half as a fleet shard) for each
// template, and a budget nothing fits.
func dseGoldenCases() []struct {
	name string
	req  DSERequest
} {
	type tc = struct {
		name string
		req  DSERequest
	}
	shard := DSERequest{
		Layer: LayerSpec{Model: "VGG16", Name: "CONV3"}, Template: "KC-P",
		BWs: []float64{8, 16, 32, 64}, L1Grid: dse.DefaultGrid(64, 1<<14, 2),
		TopK:  1 << 30,
		Shard: &DSEShard{Index: 0, Of: 2, PEMin: 64, PEMax: 128, Mappings: []string{"KC-P"}},
	}.WithDefaults()
	shard.L2Grid = append(dse.DefaultGrid(1<<12, 1<<20, 2), 1<<23+64)
	cases := []tc{
		{"bench_fleet_shard", shard},
		{"e2e_serve_GoogLeNet_CONV2_KC-P", DSERequest{
			Layer: LayerSpec{Model: "GoogLeNet", Name: "CONV2"}, Template: "KC-P",
			L2Grid: []int64{1 << 16, 1 << 18, 1 << 20, 1<<20 + 64},
		}},
	}
	for _, c := range []struct {
		tmpl  string
		layer LayerSpec
	}{
		{"KC-P", LayerSpec{Model: "VGG16", Name: "CONV11"}},
		{"YR-P", LayerSpec{Model: "ResNet50", Name: "CONV2_proj"}},
		{"YX-P", LayerSpec{Model: "MobileNetV2", Name: "B4_exp"}},
	} {
		full := DSERequest{Layer: c.layer, Template: c.tmpl}
		half := full
		half.TopK = 1 << 30
		half.Shard = &DSEShard{Index: 0, Of: 2, PEMin: 64, PEMax: 128, Mappings: []string{c.tmpl}}
		cases = append(cases,
			tc{c.tmpl + "_full", full},
			tc{c.tmpl + "_half", half})
	}
	return append(cases, tc{"nothing_fits", DSERequest{
		Layer: LayerSpec{Model: "VGG16", Name: "CONV3"}, Template: "KC-P", AreaBudgetMM2: 1e-3,
	}})
}

// timings matches the two wall-clock fields of a /v1/dse body.
var timings = regexp.MustCompile(`"(elapsed_micros|designs_per_second)":[-+.0-9eE]+`)

// TestDSEWireGolden pins /v1/dse bodies byte for byte, so a change to
// how the service computes or encodes a sweep cannot move the wire:
// fleet journals written by an older node still replay. Each request is
// served once to warm the profile cache, then again with no_cache, so
// model_invocations reads 0 whichever tests ran first; the wall-clock
// fields are zeroed. Regenerate with -update.
func TestDSEWireGolden(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	h := s.Handler()
	var got bytes.Buffer
	for _, c := range dseGoldenCases() {
		serveBody(h, "/v1/dse", mustJSON(t, c.req))
		c.req.NoCache = true
		rec := serveBody(h, "/v1/dse", mustJSON(t, c.req))
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", c.name, rec.Code, rec.Body)
		}
		got.WriteString("# " + c.name + "\n")
		got.Write(timings.ReplaceAll(rec.Body.Bytes(), []byte(`"$1":0`)))
	}
	path := filepath.Join("testdata", "dse_wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d differs from %s:\ngot  %s\nwant %s", i+1, path, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
