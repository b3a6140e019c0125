package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The serve workload drives one maestro-serve process (one analysis
// worker, leaving a core to the load generator) through serve/client
// over two closed-loop connections. Hits cost the engine almost
// nothing, so decode, canonical key, cache, queue, encode and the
// client dominate here.

type serveRun struct {
	seed   int64
	node   *node
	cl     *client.Client // load: counted transport
	ctl    *client.Client // scrapes and segment pulls, not counted
	counts *countingTransport

	mu       sync.Mutex // guards everything below
	gen      *serveGen
	opIndex  int
	traceIDs []string
	// sampled holds every 50th op and its answer, checked after the loop.
	sampled []servedOp
	// DSE answers that computed: explored and valid designs.
	dseComputed     int
	explored, valid int64

	// Node counters and client exchanges when the loop starts.
	before    nodeCounters
	attempts0 int64
}

// servedOp is one request with the answer it got.
type servedOp struct {
	op   serveOp
	resp any
}

// newServeRun starts the node, builds the clients and sends the warm-up
// requests on one connection.
func newServeRun(ctx context.Context, rc runConfig) (workload, error) {
	n, err := startNode(ctx, rc.serveBin, rc.workDir, "serve-0")
	if err != nil {
		return nil, err
	}
	sr := &serveRun{seed: rc.seed, node: n, gen: newServeGen(rc.seed), counts: newCountingTransport()}
	sr.cl, err = client.New(client.Options{BaseURL: n.url, HTTPClient: &http.Client{Transport: sr.counts}, Seed: rc.seed})
	if err == nil {
		sr.ctl, err = client.New(client.Options{BaseURL: n.url})
	}
	for _, op := range sr.gen.warmup() {
		if err != nil {
			break
		}
		if _, _, _, err = sr.send(ctx, op); err != nil {
			err = fmt.Errorf("warm-up %s: %w", op.Class, err)
		}
	}
	if err != nil {
		n.stop()
		return nil, err
	}
	return sr, nil
}

func (sr *serveRun) stop() { sr.node.stop() }

// send runs one request and returns the class its answer belongs to:
// an analyze request is a hit or a miss by what the node reports.
func (sr *serveRun) send(ctx context.Context, op serveOp) (string, any, bool, error) {
	switch {
	case op.Analyze != nil:
		cctx, s := obs.Start(ctx, "client.Analyze")
		resp, err := sr.cl.Analyze(cctx, *op.Analyze)
		s.End()
		if err != nil {
			return "miss", nil, false, err
		}
		if resp.Cached {
			return "hit", resp, true, nil
		}
		return "miss", resp, false, nil
	case op.Batch != nil:
		cctx, s := obs.Start(ctx, "client.AnalyzeBatch")
		resp, err := sr.cl.AnalyzeBatch(cctx, *op.Batch)
		s.End()
		if err != nil {
			return "batch", nil, false, err
		}
		for _, it := range resp.Results {
			if it.Error == "" {
				continue
			}
			err := fmt.Errorf("batch item %d: %s", it.Index, it.Error)
			if !refusal(it.Error) {
				// Every item is a request the library answers.
				err = wrongAnswer{err}
			}
			return "batch", nil, false, err
		}
		return "batch", resp, false, nil
	case op.DSE != nil:
		cctx, s := obs.Start(ctx, "client.DSE")
		resp, err := sr.cl.DSE(cctx, *op.DSE)
		s.End()
		if err != nil {
			return "dse", nil, false, err
		}
		return "dse", resp, resp.Cached, nil
	default:
		cctx, s := obs.Start(ctx, "client.Fusion")
		resp, err := sr.cl.Fusion(cctx, *op.Fusion)
		s.End()
		if err != nil {
			return "fusion", nil, false, err
		}
		return "fusion", resp, resp.Cached, nil
	}
}

// refusal tells a batch item the node refused (queue full, shed, closing,
// out of time) from one it answered with an error. Items carry their
// error as text; every shed message starts "serve: shed:".
func refusal(msg string) bool {
	for _, p := range []string{serve.ErrQueueFull.Error(), serve.ErrPoolClosed.Error(), "serve: shed:",
		context.DeadlineExceeded.Error(), context.Canceled.Error()} {
		if strings.HasPrefix(msg, p) {
			return true
		}
	}
	return false
}

// do runs the next request of the stream; two goroutines share it.
func (sr *serveRun) do(ctx context.Context) (string, error) {
	sr.mu.Lock()
	op := sr.gen.next()
	idx := sr.opIndex
	sr.opIndex++
	sr.mu.Unlock()

	ctx, root := obs.Start(ctx, "op."+op.Class)
	class, resp, cached, err := sr.send(ctx, op)
	root.End()

	sr.mu.Lock()
	defer sr.mu.Unlock()
	if root != nil {
		sr.traceIDs = append(sr.traceIDs, root.TraceID())
	}
	if err != nil {
		return class, err
	}
	if d, ok := resp.(*serve.DSEResponse); ok && !cached {
		sr.dseComputed++
		sr.explored += d.Explored
		sr.valid += d.Valid
	}
	if idx%50 == 0 && len(sr.sampled) < 40 {
		sr.sampled = append(sr.sampled, servedOp{op, resp})
	}
	return class, nil
}

// checkServed compares one answer with the in-process library result.
func checkServed(s servedOp, c *checker) error {
	switch r := s.resp.(type) {
	case *serve.AnalyzeResponse:
		return checkAnalyze(*s.op.Analyze, r, c)
	case *serve.BatchResponse:
		for i, it := range r.Results {
			if err := checkAnalyze(s.op.Batch.Requests[i], it.Result, c); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	case *serve.DSEResponse:
		front := make([]dse.Point, len(r.Pareto))
		for i, p := range r.Pareto {
			front[i] = pointOf(p)
		}
		return checkFront(*s.op.DSE, front, r.Explored, r.Valid, c)
	case *serve.FusionResponse:
		pts := make([]dse.FusionPoint, len(r.Points))
		for i, p := range r.Points {
			pts[i] = fusionPointOf(p)
		}
		return checkFusion(*s.op.Fusion, pts, c)
	}
	return fmt.Errorf("unexpected answer %T", s.resp)
}

// check re-sends the first requests of each class of the seed's stream
// after the loop, then checks them and the sampled in-loop answers.
func (sr *serveRun) check(ctx context.Context, c *checker) {
	checkConns(sr.counts, c)
	g := newServeGen(sr.seed)
	g.warmup()
	for i, op := range firstPerClass(serveDeck, checkedPerClass, g.next, func(o serveOp) string { return o.Class }) {
		_, resp, _, err := sr.send(ctx, op)
		if err == nil {
			err = checkServed(servedOp{op, resp}, c)
		}
		c.check(fmt.Sprintf("request %d (%s)", i, op.Class), err)
	}
	for i, s := range sr.sampled {
		c.check(fmt.Sprintf("sampled answer %d (%s)", i, s.op.Class), checkServed(s, newChecker()))
	}
}

// pullSegments fetches the node's spans of every traced op of a block
// and stitches them under the client.attempt spans that sent them.
func pullSegments(ctx context.Context, cl *client.Client, rec *obs.Recorder, ids []string) ([]obs.SpanRecord, error) {
	var remote []obs.SpanRecord
	for _, id := range ids {
		seg, err := cl.TraceSegments(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("pulling trace %s: %w", id, err)
		}
		if seg.Dropped > 0 {
			return nil, fmt.Errorf("node dropped %d spans of trace %s", seg.Dropped, id)
		}
		remote = append(remote, obs.RecordsFromJSON(seg.Spans)...)
	}
	return stitch(rec.Snapshot(), remote), nil
}

// maxTracedPerBlock keeps a traced block's traces within the node's
// segment store (256 traces) until the block's pull.
const maxTracedPerBlock = 200

func (sr *serveRun) tracer(agg *spanAgg) *tracer {
	var rec *obs.Recorder
	return &tracer{
		maxOps: maxTracedPerBlock,
		begin: func(ctx context.Context) context.Context {
			rec = obs.NewRecorder()
			sr.traceIDs = nil
			return obs.WithRecorder(ctx, rec)
		},
		end: func(ctx context.Context) error {
			spans, err := pullSegments(ctx, sr.ctl, rec, sr.traceIDs)
			if err == nil {
				agg.add(spans)
			}
			return err
		},
	}
}

func (sr *serveRun) mark(ctx context.Context) (err error) {
	sr.before, err = scrape(ctx, sr.ctl)
	sr.attempts0 = sr.counts.attempts.Load()
	return err
}

func (sr *serveRun) rows(ctx context.Context, loop *loopResult, m *metricSet) (float64, error) {
	attempts := sr.counts.attempts.Load() - sr.attempts0
	after, err := scrape(ctx, sr.ctl)
	if err != nil {
		return 0, err
	}
	var nc nodeCounters
	nc.addDelta(after, sr.before)
	m.setNodeRows(&nc, "serve")
	m.set("client.attempts_per_op", float64(attempts)/float64(max(loop.attempted, 1)))
	if sr.dseComputed > 0 {
		m.set("dse.explored", float64(sr.explored)/float64(sr.dseComputed))
		m.set("dse.valid_ratio", ratio(sr.valid, sr.explored))
	}
	return peakRSSMB(strconv.Itoa(sr.node.cmd.Process.Pid))
}
