package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/serve"
)

// -update regenerates the golden files instead of comparing.
var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestUsageGolden pins the -h output — the flag surface is part of the
// CLI contract (scripts parse it), so adding or renaming a flag must
// show up as a reviewed diff here.
func TestUsageGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); !errors.Is(err, errUsage) {
		t.Fatalf("run(-h) = %v, want errUsage", err)
	}
	golden := filepath.Join("testdata", "usage.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/maestro-dse -run TestUsageGolden -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("usage diverged from %s.\n--- got ---\n%s\n--- want ---\n%s\n(regenerate with -update if the change is intentional)",
			golden, buf.Bytes(), want)
	}
}

// TestRunUsageErrors pins the error seams main() maps to exit codes.
func TestRunUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-area", "not-a-number"}, &buf); !errors.Is(err, errUsage) {
		t.Fatalf("bad flag = %v, want errUsage", err)
	}
	if err := run([]string{"stray-positional"}, &buf); !errors.Is(err, errUsage) {
		t.Fatalf("positional arg = %v, want errUsage", err)
	}
	if err := run([]string{"-workers", " , "}, &buf); !errors.Is(err, errUsage) {
		t.Fatalf("empty workers list = %v, want errUsage", err)
	}
	if err := run([]string{"-model", "NopeNet"}, &buf); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("unknown model = %v, want a non-usage error", err)
	}
	if err := run([]string{"-dataflow", "WARP-9"}, &buf); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("unknown template = %v, want a non-usage error", err)
	}
	if err := run([]string{"-checkpoint", t.TempDir()}, &buf); !errors.Is(err, errUsage) {
		t.Fatalf("-checkpoint without -workers = %v, want errUsage", err)
	}
	if err := run([]string{"-resume"}, &buf); !errors.Is(err, errUsage) {
		t.Fatalf("-resume without -checkpoint = %v, want errUsage", err)
	}
}

// TestRunFleetQuick drives the -workers path end to end against two
// in-process serve nodes.
func TestRunFleetQuick(t *testing.T) {
	urls := make([]string, 2)
	for i := range urls {
		s := serve.New(serve.Options{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls[i] = ts.URL
	}
	var buf bytes.Buffer
	args := []string{"-quick", "-model", "VGG16", "-layer", "CONV11",
		"-dataflow", "KC-P", "-workers", strings.Join(urls, ",")}
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"across 2 nodes", "Pareto frontier:", "throughput-opt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet output missing %q:\n%s", want, out)
		}
	}
}

// TestRunFleetCheckpoint drives -checkpoint/-resume end to end: a clean
// run journals and reports its dispatch split, deletes the journal on
// success, and a -resume rerun finds nothing to replay.
func TestRunFleetCheckpoint(t *testing.T) {
	s := serve.New(serve.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	dir := t.TempDir()
	args := []string{"-quick", "-model", "VGG16", "-layer", "CONV11",
		"-dataflow", "KC-P", "-workers", ts.URL, "-checkpoint", dir}
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v\n%s", args, err, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "checkpoint: replayed 0 shards, dispatched") {
		t.Fatalf("checkpoint summary missing:\n%s", out)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("journal left behind after a clean run: %v", ents)
	}

	buf.Reset()
	if err := run(append(args, "-resume"), &buf); err != nil {
		t.Fatalf("resume run: %v\n%s", err, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "checkpoint: replayed 0 shards, dispatched") {
		t.Fatalf("resume with no journal should dispatch everything:\n%s", out)
	}
}

// TestRunZooModel: -model resolves through the whole zoo, so a model
// outside the paper's seven is found and its missing layer reported.
func TestRunZooModel(t *testing.T) {
	err := run([]string{"-model", "GoogLeNet", "-layer", "NOPE"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "layer \"NOPE\" not found in GoogLeNet") {
		t.Fatalf("GoogLeNet -layer NOPE = %v, want layer not found", err)
	}
}

// TestRunCSV: -csv writes Fig. 13's CSV format, one row per design.
func TestRunCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dse.csv")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-dataflow", "YX-P", "-layer", "CONV11", "-csv", path}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	rows, err := csv.NewReader(mustOpen(t, path)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.WriteDSECSV(&want, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows[0], ",") + "\n"; got != want.String() {
		t.Errorf("header %q, want report.WriteDSECSV's %q", got, want.String())
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("wrote %d designs to %s", len(rows)-1, path)) {
		t.Errorf("output does not report the %d rows written:\n%s", len(rows)-1, buf.String())
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
