// Command maestro-dse runs the hardware design-space exploration of the
// paper's Section 5.2 for one layer of a built-in model.
//
// Usage:
//
//	maestro-dse [-model VGG16] [-layer CONV2] [-dataflow KC-P|YR-P|YX-P]
//	            [-area 16] [-power 450] [-quick] [-csv out.csv]
//	            [-progress] [-trace out.json]
//	            [-workers http://host1:8080,http://host2:8080]
//	            [-checkpoint dir [-resume]]
//
// It sweeps PEs, NoC bandwidth, tile sizes and L2 capacity under the
// area/power budget, then prints the throughput-, energy- and
// EDP-optimized design points, the Pareto frontier, and the exploration
// statistics (Figure 13). With -csv the full design space is dumped for
// plotting; -progress reports live designs/sec during the sweep; -trace
// records the sweep as Chrome trace_event JSON for chrome://tracing.
//
// With -workers the sweep is distributed: the design space is sharded
// across the listed maestro-serve nodes and the partial Pareto fronts
// are merged as shards complete (the merged front is identical to a
// local run). In that mode -csv dumps the merged front rather than
// every valid design, since only frontier points cross the wire.
// -checkpoint journals every settled shard to a write-ahead log so a
// killed sweep can be picked back up with -resume, replaying journaled
// shards instead of re-dispatching them (see docs/FLEET.md,
// "Durability & crash recovery").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/serve"
)

// errUsage marks bad invocations; main maps it to exit status 2.
var errUsage = errors.New("usage: maestro-dse [flags]")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "maestro-dse:", err)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run is the whole tool behind a testable seam: flags in, report out.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("maestro-dse", flag.ContinueOnError)
	fs.SetOutput(stdout)
	modelName := fs.String("model", "VGG16", "built-in zoo model: "+strings.Join(models.Zoo(), ", "))
	layerName := fs.String("layer", "CONV2", "layer name within the model")
	dfName := fs.String("dataflow", "KC-P", "dataflow style: KC-P, YR-P, or YX-P")
	area := fs.Float64("area", 16, "area budget in mm²")
	power := fs.Float64("power", 450, "power budget in mW")
	quick := fs.Bool("quick", false, "coarse grids for a fast run")
	csvPath := fs.String("csv", "", "dump all valid designs (fleet mode: the merged Pareto front) to a CSV file")
	progress := fs.Bool("progress", false, "report live exploration progress on stderr")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the sweep to this file (fleet mode: one stitched multi-node trace)")
	workers := fs.String("workers", "", "comma-separated maestro-serve base URLs; distribute the sweep across them instead of exploring in-process")
	fleetMetrics := fs.String("fleet-metrics", "", "after a fleet sweep, write a federated Prometheus snapshot of every node's /metrics to this file")
	checkpoint := fs.String("checkpoint", "", "journal completed fleet shards to this directory so an interrupted sweep can be resumed")
	resume := fs.Bool("resume", false, "replay completed shards from the -checkpoint journal instead of re-dispatching them")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() != 0 {
		return errUsage
	}

	m, ok := models.ByName(*modelName)
	if !ok {
		return fmt.Errorf("unknown model %q (have %s)", *modelName, strings.Join(models.Zoo(), ", "))
	}
	li, ok := m.Find(*layerName)
	if !ok {
		return fmt.Errorf("layer %q not found in %s", *layerName, m.Name)
	}
	tmpl, ok := templateByName(*dfName, *quick)
	if !ok {
		return fmt.Errorf("unknown dataflow template %q", *dfName)
	}

	pes := []int{}
	step := 16
	if *quick {
		step = 64
	}
	for p := step; p <= 1024; p += step {
		pes = append(pes, p)
	}
	bws := []float64{}
	for b := 1.0; b <= 128; b *= 2 {
		bws = append(bws, b, b*1.5)
	}
	l1Grid := dse.DefaultGrid(64, 1<<20, 1.45)
	l2Grid := dse.DefaultGrid(1<<12, 1<<24, 1.4)

	if *resume && *checkpoint == "" {
		return fmt.Errorf("%w: -resume requires -checkpoint", errUsage)
	}
	if *workers != "" {
		return runFleet(fleetArgs{
			hosts: splitHosts(*workers),
			model: m.Name, layer: li.Layer.Name, template: *dfName,
			tmpl: tmpl, pes: pes, bws: bws, l1Grid: l1Grid, l2Grid: l2Grid,
			area: *area, power: *power,
			csvPath: *csvPath, tracePath: *tracePath, progress: *progress,
			metricsPath:   *fleetMetrics,
			checkpointDir: *checkpoint, resume: *resume,
		}, stdout)
	}
	if *fleetMetrics != "" {
		return fmt.Errorf("%w: -fleet-metrics requires -workers", errUsage)
	}
	if *checkpoint != "" {
		return fmt.Errorf("%w: -checkpoint requires -workers", errUsage)
	}

	space := dse.Space{
		Layer:         li.Layer,
		Template:      tmpl,
		PEs:           pes,
		BWs:           bws,
		L1Grid:        l1Grid,
		L2Grid:        l2Grid,
		AreaBudgetMM2: *area,
		PowerBudgetMW: *power,
		Cost:          hw.Default28nm(),
	}
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder()
		space.Ctx = obs.WithRecorder(context.Background(), rec)
	}
	if *progress {
		space.Progress = func(p dse.Stats) {
			fmt.Fprintf(os.Stderr, "\r%d explored, %d priced, %d valid — %.3g designs/s ",
				p.Explored, p.Priced, p.Valid, p.Rate())
		}
	}
	pts, stats := dse.Explore(space)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if rec != nil {
		if err := writeTrace(*tracePath, rec); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", rec.Len(), *tracePath)
	}
	fmt.Fprintf(stdout, "%s on %s/%s: %d mappings profiled, %d hardware points priced, %d valid (raw space %d)\n",
		tmpl.Name, m.Name, li.Layer.Name, stats.Invoked, stats.Priced, stats.Valid, stats.Raw)
	fmt.Fprintf(stdout, "explored %d points in %.2fs: %.3g designs/s (%.1f pricings per profile)\n\n",
		stats.Explored, stats.Elapsed.Seconds(), stats.Rate(),
		float64(stats.Priced)/float64(max(stats.Invoked, 1)))

	if len(pts) == 0 {
		fmt.Fprintln(stdout, "no valid designs within budget")
		return nil
	}
	t, _ := dse.ThroughputOpt(pts)
	showPoint(stdout, "throughput-opt", t)
	e, _ := dse.EnergyOpt(pts)
	showPoint(stdout, "energy-opt", e)
	d, _ := dse.EDPOpt(pts)
	showPoint(stdout, "edp-opt", d)
	fmt.Fprintf(stdout, "Pareto frontier: %d of %d evaluated points\n", len(dse.Pareto(pts)), len(pts))

	if *csvPath != "" {
		if err := writeCSV(*csvPath, pts); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d designs to %s\n", len(pts), *csvPath)
	}
	return nil
}

// fleetArgs carries one distributed invocation's resolved inputs.
type fleetArgs struct {
	hosts                  []string
	model, layer, template string
	tmpl                   dse.Template
	pes                    []int
	bws                    []float64
	l1Grid, l2Grid         []int64
	area, power            float64
	csvPath, tracePath     string
	metricsPath            string
	checkpointDir          string
	progress, resume       bool
}

// runFleet distributes the sweep across maestro-serve nodes and prints
// the merged result in the same shape as a local run.
func runFleet(a fleetArgs, stdout io.Writer) error {
	if len(a.hosts) == 0 {
		return fmt.Errorf("%w: -workers needs at least one host", errUsage)
	}
	opts := fleet.Options{Hosts: a.hosts, CheckpointDir: a.checkpointDir, Resume: a.resume}
	if a.progress {
		opts.OnShard = func(sr fleet.ShardResult) {
			verb := "done on"
			if sr.Replayed {
				verb = "replayed from journal, last run on"
			}
			fmt.Fprintf(os.Stderr, "\rshard %d/%d %s %s (%d designs) ",
				sr.Shard.Index+1, sr.Shard.Of, verb, sr.Host, sr.Resp.Explored)
		}
	}
	f, err := fleet.New(opts)
	if err != nil {
		return err
	}
	defer f.Close()

	ctx := context.Background()
	var rec *obs.Recorder
	if a.tracePath != "" {
		rec = obs.NewRecorder()
		ctx = obs.WithRecorder(ctx, rec)
	}
	res, err := f.Sweep(ctx, serve.DSERequest{
		Layer:         serve.LayerSpec{Model: a.model, Name: a.layer},
		Template:      a.template,
		P1:            a.tmpl.P1,
		P2:            a.tmpl.P2,
		PEs:           a.pes,
		BWs:           a.bws,
		L1Grid:        a.l1Grid,
		L2Grid:        a.l2Grid,
		AreaBudgetMM2: a.area,
		PowerBudgetMW: a.power,
	})
	if a.progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	if rec != nil {
		if err := writeFleetTrace(ctx, f, res.TraceID, rec, a.tracePath, stdout); err != nil {
			return err
		}
	}
	if a.metricsPath != "" {
		fed, ferr := f.FederateMetrics(ctx)
		if ferr != nil {
			return ferr
		}
		if err := os.WriteFile(a.metricsPath, []byte(fed.Text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote federated metrics for %d nodes to %s\n", len(fed.Up), a.metricsPath)
	}
	if a.checkpointDir != "" {
		fmt.Fprintf(stdout, "checkpoint: replayed %d shards, dispatched %d of %d\n",
			res.Replayed, res.Shards-res.Replayed, res.Shards)
		if res.JournalErrors > 0 {
			fmt.Fprintf(stdout, "warning: %d journal write failures — unjournaled shards re-run on resume\n", res.JournalErrors)
		}
	}
	fmt.Fprintf(stdout, "%s on %s/%s across %d nodes: %d shards, %d mappings profiled, %d hardware points priced, %d valid (raw space %d)\n",
		a.template, a.model, a.layer, len(a.hosts), res.Shards, res.Invoked, res.Pricings, res.Valid, res.Raw)
	fmt.Fprintf(stdout, "explored %d points in %.2fs: %.3g designs/s (%d re-dispatched, %d stolen, %d discarded)\n\n",
		res.Explored, res.Elapsed.Seconds(), res.Rate(), res.Redispatched, res.Stolen, res.Discarded)

	if len(res.Pareto) == 0 {
		fmt.Fprintln(stdout, "no valid designs within budget")
		return nil
	}
	// A sweep with a front has all three optima.
	showPoint(stdout, "throughput-opt", *res.ThroughputOpt)
	showPoint(stdout, "energy-opt", *res.EnergyOpt)
	showPoint(stdout, "edp-opt", *res.EDPOpt)
	fmt.Fprintf(stdout, "Pareto frontier: %d points\n", len(res.Pareto))

	if a.csvPath != "" {
		if err := writeCSV(a.csvPath, res.Pareto); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d designs to %s\n", len(res.Pareto), a.csvPath)
	}
	return nil
}

// splitHosts parses the -workers list, dropping empty entries so
// trailing commas are harmless.
func splitHosts(s string) []string {
	var hosts []string
	for _, h := range strings.Split(s, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

func showPoint(w io.Writer, tag string, p dse.Point) {
	fmt.Fprintf(w, "%-16s PEs=%-5d BW=%-5.0f L1=%-6dB L2=%-8dB area=%.2fmm² power=%.1fmW  %.1f MAC/cyc  %.3g pJ  EDP %.3g\n",
		tag, p.NumPEs, p.BW, p.L1Bytes, p.L2Bytes, p.AreaMM2, p.PowerMW, p.Throughput, p.EnergyPJ, p.EDP)
}

func templateByName(name string, quick bool) (dse.Template, bool) {
	switch name {
	case "KC-P":
		t := dse.Template{Name: "KC-P", Build: dataflows.KCPSized,
			P1: []int{8, 16, 32, 64, 128, 256, 512}, P2: []int{4, 8, 16, 32, 64}}
		if quick {
			t.P1, t.P2 = []int{16, 64}, []int{8, 32}
		}
		return t, true
	case "YR-P":
		t := dse.Template{Name: "YR-P", Build: dataflows.YRPSized,
			P1: []int{1, 2, 4, 8, 16, 32, 64}, P2: []int{1, 2, 4, 8, 16, 32}}
		if quick {
			t.P1, t.P2 = []int{2, 8}, []int{2, 8}
		}
		return t, true
	case "YX-P":
		return dse.Template{Name: "YX-P",
			Build: func(p1, _ int) dataflow.Dataflow { return dataflows.YXPSized(p1) },
			P1:    []int{2, 4, 8, 16}, P2: []int{1}}, true
	}
	return dse.Template{}, false
}

// writeCSV writes pts to path in Fig. 13's CSV format.
func writeCSV(path string, pts []dse.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteDSECSV(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFleetTrace assembles the stitched multi-node trace for the
// sweep and writes it as Chrome trace JSON, falling back to the
// coordinator-only spans when assembly is impossible (e.g. segment
// stores disabled fleet-wide).
func writeFleetTrace(ctx context.Context, f *fleet.Fleet, traceID string, rec *obs.Recorder, path string, stdout io.Writer) error {
	if traceID != "" {
		ft, err := f.AssembleTrace(ctx, traceID, rec)
		if err == nil && len(ft.Spans) > rec.Len() {
			out, ferr := os.Create(path)
			if ferr != nil {
				return ferr
			}
			if werr := ft.WriteChrome(out); werr != nil {
				out.Close()
				return werr
			}
			if err := out.Close(); err != nil {
				return err
			}
			nodes := 0
			for _, n := range ft.Nodes {
				if n.Err == "" {
					nodes++
				}
			}
			fmt.Fprintf(stdout, "wrote stitched trace %s (%d spans across coordinator + %d nodes, %d dropped) to %s\n",
				ft.TraceID, len(ft.Spans), nodes, ft.Dropped, path)
			return nil
		}
	}
	if err := writeTrace(path, rec); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d spans to %s\n", rec.Len(), path)
	return nil
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
