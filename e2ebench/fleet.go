package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve/client"
)

// The fleet workload runs a fleet.Fleet coordinator in the benchmark
// process over two maestro-serve processes (one worker each) and sends
// it few, large requests: DSE and fusion sweeps. It exercises dispatch,
// ring routing and merge, and uses the service differently from the
// serve workload. The shard journal is off, as in maestro-dse without
// -checkpoint: on the disk the benchmark may write to, its fsyncs added
// 2.5-5 ms of run-to-run noise to a 7 ms sweep.

type fleetRun struct {
	seed   int64
	nodes  []*node
	f      *fleet.Fleet
	ctl    []*client.Client
	counts *countingTransport

	mu       sync.Mutex // guards everything below
	gen      *fleetGen
	opIndex  int
	traceIDs []string
	sampled  []sweptOp
	// Outcomes over every DSE sweep of the loop.
	dseSweeps       int
	explored, valid int64

	// Node counters, dispatch counters and coordinator exchanges when the
	// loop starts; pulled counts the exchanges trace assembly makes
	// between blocks, which are not the coordinator's attempts.
	before    []nodeCounters
	stats0    fleet.Stats
	attempts0 int64
	pulled    int64
}

// sweptOp is one sweep with its merged answer.
type sweptOp struct {
	op  fleetOp
	dse *fleet.Result
	fus *fleet.FusionResult
}

// newFleetRun starts the nodes and the coordinator and sends one warm-up
// sweep per recurring pair.
func newFleetRun(ctx context.Context, rc runConfig) (workload, error) {
	fr := &fleetRun{seed: rc.seed, gen: newFleetGen(rc.seed), counts: newCountingTransport()}
	var hosts []string
	for i := 0; i < 2; i++ {
		n, err := startNode(ctx, rc.serveBin, rc.workDir, "fleet-"+strconv.Itoa(i))
		if err != nil {
			fr.stop()
			return nil, err
		}
		fr.nodes = append(fr.nodes, n)
		hosts = append(hosts, n.url)
		ctl, err := client.New(client.Options{BaseURL: n.url})
		if err != nil {
			fr.stop()
			return nil, err
		}
		fr.ctl = append(fr.ctl, ctl)
	}
	f, err := fleet.New(fleet.Options{
		Hosts:  hosts,
		Client: client.Options{HTTPClient: &http.Client{Transport: fr.counts}, Seed: rc.seed},
		// One shard in flight per node keeps the coordinator at two
		// connections; the prober is off.
		InflightPerNode: 1,
	})
	if err != nil {
		fr.stop()
		return nil, err
	}
	fr.f = f
	for _, op := range fr.gen.warmup() {
		if _, err := fr.sweep(ctx, op); err != nil {
			fr.stop()
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	return fr, nil
}

func (fr *fleetRun) stop() {
	if fr.f != nil {
		fr.f.Close()
	}
	for _, n := range fr.nodes {
		n.stop()
	}
}

// sweep runs one op through the coordinator.
func (fr *fleetRun) sweep(ctx context.Context, op fleetOp) (sweptOp, error) {
	out := sweptOp{op: op}
	var err error
	if op.DSE != nil {
		cctx, s := obs.Start(ctx, "fleet.Sweep")
		out.dse, err = fr.f.Sweep(cctx, *op.DSE)
		s.End()
	} else {
		cctx, s := obs.Start(ctx, "fleet.SweepFusion")
		out.fus, err = fr.f.SweepFusion(cctx, *op.Fusion)
		s.End()
	}
	return out, err
}

func (fr *fleetRun) do(ctx context.Context) (string, error) {
	fr.mu.Lock()
	op := fr.gen.next()
	idx := fr.opIndex
	fr.opIndex++
	fr.mu.Unlock()

	ctx, root := obs.Start(ctx, "op."+op.Class)
	res, err := fr.sweep(ctx, op)
	root.End()

	fr.mu.Lock()
	defer fr.mu.Unlock()
	if root != nil {
		fr.traceIDs = append(fr.traceIDs, root.TraceID())
	}
	if err != nil {
		return op.Class, err
	}
	if res.dse != nil {
		fr.dseSweeps++
		fr.explored += res.dse.Explored
		fr.valid += res.dse.Valid
	}
	if idx%40 == 0 && len(fr.sampled) < 8 {
		fr.sampled = append(fr.sampled, res)
	}
	return op.Class, nil
}

// checkSwept compares a merged sweep with a local one of the same space.
func checkSwept(s sweptOp, c *checker) error {
	if s.dse != nil {
		return checkFront(*s.op.DSE, s.dse.Pareto, s.dse.Explored, s.dse.Valid, c)
	}
	return checkFusion(*s.op.Fusion, s.fus.Points, c)
}

// fleetCheckedPerClass is how many leading sweeps of each class are
// re-run and checked.
const fleetCheckedPerClass = 4

// check re-runs the first sweeps of each class of the seed's stream after
// the loop, then checks them and the sampled in-loop sweeps.
func (fr *fleetRun) check(ctx context.Context, c *checker) {
	checkConns(fr.counts, c)
	g := newFleetGen(fr.seed)
	g.warmup()
	for i, op := range firstPerClass(fleetDeck, fleetCheckedPerClass, g.next, func(o fleetOp) string { return o.Class }) {
		res, err := fr.sweep(ctx, op)
		if err == nil {
			err = checkSwept(res, c)
		}
		c.check(fmt.Sprintf("sweep %d (%s)", i, op.Class), err)
	}
	for i, s := range fr.sampled {
		c.check(fmt.Sprintf("sampled sweep %d (%s)", i, s.op.Class), checkSwept(s, newChecker()))
	}
}

func scrapeAll(ctx context.Context, ctl []*client.Client) ([]nodeCounters, error) {
	var out []nodeCounters
	for _, cl := range ctl {
		nc, err := scrape(ctx, cl)
		if err != nil {
			return nil, err
		}
		out = append(out, nc)
	}
	return out, nil
}

func (fr *fleetRun) tracer(agg *spanAgg) *tracer {
	var rec *obs.Recorder
	return &tracer{
		begin: func(ctx context.Context) context.Context {
			rec = obs.NewRecorder()
			fr.traceIDs = nil
			return obs.WithRecorder(ctx, rec)
		},
		end: func(ctx context.Context) error {
			n0 := fr.counts.attempts.Load()
			defer func() { fr.pulled += fr.counts.attempts.Load() - n0 }()
			for _, id := range fr.traceIDs {
				ft, err := fr.f.AssembleTrace(ctx, id, rec)
				if err != nil {
					return err
				}
				if ft.Dropped > 0 {
					return fmt.Errorf("nodes dropped %d spans of trace %s", ft.Dropped, id)
				}
				agg.add(ft.Spans)
			}
			return nil
		},
	}
}

func (fr *fleetRun) mark(ctx context.Context) (err error) {
	fr.before, err = scrapeAll(ctx, fr.ctl)
	fr.stats0 = fr.f.Stats()
	fr.attempts0 = fr.counts.attempts.Load()
	return err
}

func (fr *fleetRun) rows(ctx context.Context, loop *loopResult, m *metricSet) (float64, error) {
	st := fr.f.Stats()
	attempts := fr.counts.attempts.Load() - fr.attempts0 - fr.pulled
	after, err := scrapeAll(ctx, fr.ctl)
	if err != nil {
		return 0, err
	}
	// Peak RSS of the coordinator (this process) and both nodes.
	var nc nodeCounters
	rss, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return 0, err
	}
	for i, n := range fr.nodes {
		nc.addDelta(after[i], fr.before[i])
		r, err := peakRSSMB(strconv.Itoa(n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		rss += r
	}
	m.setNodeRows(&nc, "fleet")
	shards := st.Shards - fr.stats0.Shards
	m.set("client.attempts_per_op", float64(attempts)/float64(max(shards, 1)))
	m.set("fleet.shards", float64(shards)/float64(max(loop.attempted, 1)))
	m.set("fleet.redispatched", float64(st.Redispatched-fr.stats0.Redispatched))
	m.set("fleet.stolen", float64(st.Stolen-fr.stats0.Stolen))
	m.set("fleet.discarded", float64(st.Discarded-fr.stats0.Discarded))
	m.set("fleet.node_compute_ms", nc.stageMs("compute"))
	if fr.dseSweeps > 0 {
		m.set("dse.explored", float64(fr.explored)/float64(fr.dseSweeps))
		m.set("dse.valid_ratio", ratio(fr.valid, fr.explored))
	}
	return rss, nil
}
