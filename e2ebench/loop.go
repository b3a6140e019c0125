package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc deals the next op of a workload's stream, runs it and returns
// its class; a wrongAnswer error fails the run. When ctx carries an obs
// recorder the op is traced: it opens its own "op.<class>" root span and
// passes ctx into every layer call.
type opFunc func(ctx context.Context) (class string, err error)

// phase accumulates the ops of one kind of block (traced or untraced).
type phase struct {
	lat     samples
	ops     int
	elapsed time.Duration
	// Go runtime deltas of the benchmark process over the phase's blocks.
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func (p *phase) opsPerSec() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.ops) / p.elapsed.Seconds()
}

// loopResult is a timed loop: untraced and traced phases, and every op
// attempted or failed in either.
type loopResult struct {
	untraced, traced  phase
	attempted, failed int
	wrong             int // failed ops that answered wrongly
	errs              []string
}

// wrongAnswer marks an op error that is a wrong answer, such as a fused
// schedule its replay contradicts, rather than a refusal or a failure to
// answer: it fails the run, not only the op.
type wrongAnswer struct{ error }

func (r *loopResult) fail(err error) {
	r.failed++
	msg := err.Error()
	if errors.As(err, new(wrongAnswer)) {
		r.wrong++
		msg = "wrong answer: " + msg
	}
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// tracer brackets the traced blocks: begin returns the context the
// block's ops run under (carrying a fresh recorder), end harvests the
// block's spans once every op has returned.
type tracer struct {
	begin func(ctx context.Context) context.Context
	end   func(ctx context.Context) error
	// maxOps caps the ops of one traced block (0 = no cap), for stores
	// that keep a bounded number of traces until they are pulled.
	maxOps int
}

// blockLen is the length of one traced or untraced block of a traced
// run. Blocks alternate, so machine drift hits both phases alike.
const blockLen = 250 * time.Millisecond

// runLoop drives op closed-loop from workers goroutines for total. An
// untraced run is one block; a traced run alternates untraced and
// traced blocks, so trace overhead is the ops/s difference between them.
func runLoop(ctx context.Context, total time.Duration, workers int, tr *tracer, op opFunc) (*loopResult, error) {
	r := &loopResult{untraced: phase{lat: samples{}}, traced: phase{lat: samples{}}}
	if tr == nil {
		runBlock(ctx, total, workers, 0, op, &r.untraced, r)
		return r, ctx.Err()
	}
	end := time.Now().Add(total)
	for i := 0; time.Now().Before(end) && ctx.Err() == nil; i++ {
		d := min(blockLen, time.Until(end))
		if i%2 == 0 {
			runBlock(ctx, d, workers, 0, op, &r.untraced, r)
			continue
		}
		bctx := tr.begin(ctx)
		runBlock(bctx, d, workers, tr.maxOps, op, &r.traced, r)
		if err := tr.end(ctx); err != nil {
			return nil, fmt.Errorf("harvesting traced block: %w", err)
		}
	}
	return r, ctx.Err()
}

// runBlock runs one block: workers closed-loop goroutines, each sending
// its next op only after the previous one returned, until the block
// ends. An op in flight at the end completes and counts.
func runBlock(ctx context.Context, d time.Duration, workers, maxOps int, op opFunc, p *phase, r *loopResult) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				if maxOps > 0 && issued.Add(1) > int64(maxOps) {
					return
				}
				t := time.Now()
				class, err := op(ctx)
				dur := time.Since(t)
				mu.Lock()
				r.attempted++
				if err != nil {
					r.fail(fmt.Errorf("%s: %w", class, err))
				} else {
					p.lat.add(class, dur)
					p.ops++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed += time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocBytes += after.TotalAlloc - before.TotalAlloc
	p.gcCycles += after.NumGC - before.NumGC
	p.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// setGoRuntime records the Go runtime rows, per op of the phase.
func (m *metricSet) setGoRuntime(p *phase) {
	ops := float64(max(p.ops, 1))
	m.set("go.alloc_mb", float64(p.allocBytes)/(1<<20)/ops)
	m.set("go.gc_cycles", float64(p.gcCycles)/ops)
	m.set("go.gc_pause_ms", float64(p.gcPause)/1e6/ops)
}
