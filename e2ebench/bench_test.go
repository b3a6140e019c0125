package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// firstOps returns the first n inputs each generator deals for seed,
// set-up requests included.
func firstOps(t *testing.T, seed int64, n int) map[string][]any {
	t.Helper()
	pools, err := newLocalPools()
	if err != nil {
		t.Fatal(err)
	}
	lg, sg, fg := newLocalGen(seed, pools), newServeGen(seed), newFleetGen(seed)
	out := map[string][]any{"serve": {sg.warmup()}, "fleet": {fg.warmup()}}
	for i := 0; i < n; i++ {
		out["local"] = append(out["local"], lg.next())
		out["serve"] = append(out["serve"], sg.next())
		out["fleet"] = append(out["fleet"], fg.next())
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := firstOps(t, 42, 200), firstOps(t, 42, 200), firstOps(t, 43, 200)
	for _, wl := range []string{"local", "serve", "fleet"} {
		if !reflect.DeepEqual(a[wl], b[wl]) {
			t.Errorf("%s: the same seed generated different inputs", wl)
		}
		if reflect.DeepEqual(a[wl], c[wl]) {
			t.Errorf("%s: seeds 42 and 43 generated identical inputs", wl)
		}
	}
}

// TestInputsReadNoClock checks the input generator statically: it may
// not import a clock, and may draw randomness only from a seeded source.
func TestInputsReadNoClock(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "inputs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			t.Error("inputs.go imports time")
		}
	}
	allowed := map[string]bool{"New": true, "NewSource": true, "Rand": true}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "rand" && !allowed[sel.Sel.Name] {
			t.Errorf("inputs.go uses the global random source: rand.%s", sel.Sel.Name)
		}
		return true
	})
}

// slowStop is a workload whose ops return at once and whose stop takes
// stopDelay, like a node that drains slowly.
type slowStop struct{ stopped *int }

const stopDelay = 150 * time.Millisecond

func (slowStop) do(context.Context) (string, error) {
	time.Sleep(time.Millisecond)
	return "dse", nil
}
func (slowStop) tracer(*spanAgg) *tracer                                        { return nil }
func (slowStop) mark(context.Context) error                                     { return nil }
func (slowStop) rows(context.Context, *loopResult, *metricSet) (float64, error) { return 1, nil }
func (slowStop) check(context.Context, *checker)                                {}
func (w slowStop) stop()                                                        { *w.stopped++; time.Sleep(stopDelay) }

// TestSetupExcludesTeardown: stopping an earlier set-up is not set-up
// time, and every set-up is stopped.
func TestSetupExcludesTeardown(t *testing.T) {
	stopped := 0
	spec := workloadSpec{
		setUp:   func(context.Context, runConfig) (workload, error) { return slowStop{&stopped}, nil },
		workers: 1,
		setups:  3,
	}
	res, err := drive(context.Background(), runConfig{seconds: 1, out: io.Discard}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.metrics.values["setup_s"]; s >= stopDelay.Seconds()/2 {
		t.Errorf("setup_s = %v s includes teardown (%v per stop)", s, stopDelay)
	}
	if stopped != 3 {
		t.Errorf("%d of 3 set-ups stopped", stopped)
	}
}

// TestWrongAnswerFailsRun: a wrong answer in the timed loop makes the run
// incorrect; a refusal only counts as a failed op.
func TestWrongAnswerFailsRun(t *testing.T) {
	for _, tc := range []struct {
		err     error
		correct bool
	}{
		{wrongAnswer{errors.New("replay contradicts the schedule")}, false},
		{fmt.Errorf("op: %w", wrongAnswer{errors.New("batch item 3: bad")}), false},
		{errors.New("429 queue full"), true},
	} {
		n := 0
		op := func(context.Context) (string, error) {
			if n++; n == 3 {
				return "fusion", tc.err
			}
			return "fusion", nil
		}
		loop, err := runLoop(context.Background(), 20*time.Millisecond, 1, nil, op)
		if err != nil {
			t.Fatal(err)
		}
		res := finish(runConfig{out: io.Discard}, loop, newChecker(), newMetricSet(), newMetricSet())
		if res.correct != tc.correct || res.failed != 1 {
			t.Errorf("%v: correct=%v failed=%d, want correct=%v failed=1", tc.err, res.correct, res.failed, tc.correct)
		}
	}
}

func TestRefusal(t *testing.T) {
	for msg, want := range map[string]bool{
		"serve: work queue full":                        true,
		"serve: shed: remaining deadline 1ms below ...": true,
		"context deadline exceeded":                     true,
		"serve: unknown layer \"CONV9\" in model VGG16": false,
		"": false,
	} {
		if got := refusal(msg); got != want {
			t.Errorf("refusal(%q) = %v, want %v", msg, got, want)
		}
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers []metricDef) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.EndToEnd, doc.PerLayer
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nbenchmark declares:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nbenchmark declares:\n%v", layers, perLayer)
	}
}

// TestShortRuns runs every workload briefly in both modes against a
// freshly built maestro-serve: each must pass its checks with no failed
// op and print exactly the declared metrics.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds maestro-serve and starts node processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "maestro-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/maestro-serve").CombinedOutput(); err != nil {
		t.Fatalf("building maestro-serve: %v\n%s", err, out)
	}
	for _, wl := range []string{"local", "serve", "fleet"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-serve-bin", bin, "-workdir", dir,
					"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", trace}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				var names, got []string
				for _, d := range want {
					names = append(names, d.Name)
					if m := res.Metrics[d.Name]; m.Unit != d.Unit {
						t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
				}
				for n := range res.Metrics {
					got = append(got, n)
				}
				sort.Strings(names)
				sort.Strings(got)
				if !reflect.DeepEqual(got, names) {
					t.Errorf("printed metrics %v, declared %v", got, names)
				}
				if trace == "0" {
					for _, d := range want {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}
