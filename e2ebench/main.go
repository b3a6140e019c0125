// Command e2ebench is the repository's end-to-end benchmark. It runs one
// seeded workload through the public functions of each layer, checks the
// answers against the in-process library, and prints every metric by
// name with its unit; the last line of standard output is one JSON
// object with the metrics of the mode. See README.md for the workloads,
// the metric to layer map and how to run it.
//
//	e2ebench -serve-bin PATH --workload local|serve|fleet --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string // maestro-serve binary, for serve and fleet
	workDir  string // the nodes' working directory
	out      io.Writer
}

// result is what a workload hands back for the final JSON line.
type result struct {
	correct           bool
	attempted, failed int
	metrics           *metricSet
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rc := runConfig{out: stdout}
	fs.StringVar(&rc.workload, "workload", "", "local, serve or fleet")
	fs.Int64Var(&rc.seed, "seed", 1, "input seed")
	fs.IntVar(&rc.seconds, "seconds", 10, "timed loop length")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	fs.StringVar(&rc.serveBin, "serve-bin", "", "maestro-serve binary (serve and fleet)")
	workDir := fs.String("workdir", ".bench_build", "directory the nodes run in (a fresh subdirectory per run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rc.trace = *trace == 1
	if rc.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	wl, ok := workloads[rc.workload]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (have local, serve, fleet)\n", rc.workload)
		return 2
	}
	// Nodes run in the run's directory, so the binary needs a full path.
	if rc.serveBin != "" {
		abs, err := filepath.Abs(rc.serveBin)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
		rc.serveBin = abs
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rc.workDir = dir
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup of the run's scratch
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%d trace=%v\n", rc.workload, rc.seed, rc.seconds, rc.trace)
	res, err := drive(ctx, rc, wl)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", rc.workload, err)
		return 1
	}
	want := endToEnd
	if rc.trace {
		want = perLayer
	}
	line, err := resultJSON(res, want)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct {
		return 1
	}
	return 0
}

// resultJSON renders the result line: exactly the declared metrics.
func resultJSON(res *result, want []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(want))
	for _, d := range want {
		v, ok := res.metrics.values[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, metrics})
	return string(b), err
}

// A workload is what differs between local, serve and fleet; drive runs
// the sequence they share.
type workload interface {
	// do runs the next op of the seeded stream.
	do(ctx context.Context) (class string, err error)
	// tracer brackets the traced blocks, folding their spans into agg.
	tracer(agg *spanAgg) *tracer
	// mark reads the counters the rows are deltas of, before the loop.
	mark(ctx context.Context) error
	// rows fills the workload's own per-layer rows after the loop and
	// returns the peak RSS of the processes under test.
	rows(ctx context.Context, loop *loopResult, m *metricSet) (rssMB float64, err error)
	// check runs the correctness checks, after the loop.
	check(ctx context.Context, c *checker)
	// stop ends every process the workload started and waits for it.
	stop()
}

// workloadSpec says how to set a workload up: setUp starts it from cold
// and warms it up, and returns once the first timed op can run.
type workloadSpec struct {
	setUp   func(ctx context.Context, rc runConfig) (workload, error)
	workers int // closed-loop callers
	setups  int // cold set-ups timed per run
}

var workloads = map[string]workloadSpec{
	// In-process set-up is milliseconds long: time more of them.
	"local": {setUp: newLocalRun, workers: 1, setups: 9},
	"serve": {setUp: newServeRun, workers: maxConns, setups: 5},
	// One caller: the coordinator keeps one shard in flight per node,
	// two connections in all.
	"fleet": {setUp: newFleetRun, workers: 1, setups: 5},
}

// drive runs one workload: cold set-ups (the median of their times is
// setup_s; each but the last is stopped outside the timed span), the
// timed loop, the rows, and the checks.
func drive(ctx context.Context, rc runConfig, spec workloadSpec) (*result, error) {
	var w workload
	var setups []float64
	for i := 0; i < spec.setups; i++ {
		if w != nil {
			w.stop()
		}
		t := time.Now()
		var err error
		if w, err = spec.setUp(ctx, rc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.stop()

	agg := newSpanAgg()
	var tr *tracer
	if rc.trace {
		tr = w.tracer(agg)
	}
	if err := w.mark(ctx); err != nil {
		return nil, err
	}
	loop, err := runLoop(ctx, time.Duration(rc.seconds)*time.Second, spec.workers, tr, w.do)
	if err != nil {
		return nil, err
	}
	if loop.untraced.ops == 0 {
		return nil, errNoOps
	}
	u := &loop.untraced
	layers := newLayerSet(u, loop)
	layers.setSpanRows(agg)
	rss, err := w.rows(ctx, loop, layers)
	if err != nil {
		return nil, err
	}
	e2e := newE2ESet(u, rss, median(setups))
	// Checks run after the rows are taken: they re-run ops, and the rows
	// cover the timed loop only.
	c := newChecker()
	w.check(ctx, c)
	report(rc, u, e2e, layers, agg)
	return finish(rc, loop, c, e2e, layers), nil
}

// checker collects correctness verdicts and a digest of the modelled
// statistics (cycles, energy, DRAM traffic) of a fixed, seed-determined
// set of ops, so a speed-only change can show it left them identical.
type checker struct {
	digest   hash.Hash
	checked  int
	nfailed  int
	failures []string // the first few
}

func newChecker() *checker { return &checker{digest: sha256.New()} }

// record folds modelled statistics into the digest.
func (c *checker) record(stats ...any) { fmt.Fprintln(c.digest, stats...) }

func (c *checker) check(what string, err error) {
	c.checked++
	if err == nil {
		return
	}
	c.nfailed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, what+": "+err.Error())
	}
}

// firstPerClass deals ops from next until it holds the first n of each
// class of the deck, and returns those in stream order: the checks cover
// every class however rare it is in the mix.
func firstPerClass[T any](deck []deckEntry, n int, next func() T, class func(T) string) []T {
	left := map[string]int{}
	for _, e := range deck {
		left[e.class] = n
	}
	var out []T
	for len(out) < n*len(deck) {
		op := next()
		if c := class(op); left[c] > 0 {
			left[c]--
			out = append(out, op)
		}
	}
	return out
}

func (c *checker) print(w io.Writer) {
	fmt.Fprintf(w, "  checks: %d run, %d failed; digest of modelled statistics %s\n",
		c.checked, c.nfailed, hex.EncodeToString(c.digest.Sum(nil))[:16])
	for _, f := range c.failures {
		fmt.Fprintln(w, "  CHECK FAILED:", f)
	}
}

// finish assembles the result: attempted and failed ops (checks
// included), and the metric set the mode prints. A failed check or a
// wrong answer in the loop makes the run incorrect.
func finish(rc runConfig, lr *loopResult, c *checker, e2e, layers *metricSet) *result {
	res := &result{
		correct:   c.nfailed == 0 && lr.wrong == 0,
		attempted: lr.attempted + c.checked,
		failed:    lr.failed + c.nfailed,
		metrics:   e2e,
	}
	if rc.trace {
		res.metrics = layers
	}
	for _, e := range lr.errs {
		fmt.Fprintln(rc.out, "  OP FAILED:", e)
	}
	c.print(rc.out)
	fmt.Fprintf(rc.out, "  attempted=%d failed=%d wrong answers in the loop=%d\n", res.attempted, res.failed, lr.wrong)
	return res
}

var errNoOps = errors.New("the timed loop completed no op")
