package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve/client"
)

// node is one maestro-serve process under test.
type node struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
}

// startNode launches maestro-serve with one analysis worker on a free
// loopback port and waits until /healthz answers ready. The node writes
// an access-log line per request; it goes to /dev/null, so that disk
// write-back does not add noise to the timings.
func startNode(ctx context.Context, bin, dir, name string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-node", name, "-workers", "1")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// The node dies with the benchmark, whatever kills the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	n := &node{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() { cmd.Wait(); close(n.done) }() //nolint:errcheck // exit status is reported by the readiness probe
	if err := n.waitReady(ctx); err != nil {
		n.stop()
		return nil, err
	}
	return n, nil
}

func (n *node) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-n.done:
			return fmt.Errorf("%s exited during start-up", n.name)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := hc.Get(n.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 10s", n.name)
}

// stop drains the node with SIGINT, as an operator would, and kills it
// if it has not exited within 10 s. It returns once the process is gone.
func (n *node) stop() {
	n.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // already exited is fine
	select {
	case <-n.done:
	case <-time.After(10 * time.Second):
		n.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-n.done
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// nodeCounters is the node-side state read from outside the program:
// /v1/status for the caches and refusals, /metrics for stage sums.
type nodeCounters struct {
	hits, misses, evictions int64
	profHits, profMisses    int64
	rejected, shed          int64
	stageSum                map[string]float64 // seconds
	stageCount              map[string]float64
}

func scrape(ctx context.Context, c *client.Client) (nodeCounters, error) {
	st, err := c.Status(ctx)
	if err != nil {
		return nodeCounters{}, fmt.Errorf("reading /v1/status: %w", err)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		return nodeCounters{}, fmt.Errorf("reading /metrics: %w", err)
	}
	nc := nodeCounters{
		hits: st.Cache.Hits, misses: st.Cache.Misses, evictions: st.Cache.Evictions,
		profHits: st.ProfileCache.Hits, profMisses: st.ProfileCache.Misses,
		rejected: st.Rejected, shed: st.Shed,
		stageSum: map[string]float64{}, stageCount: map[string]float64{},
	}
	for _, line := range strings.Split(text, "\n") {
		for _, suffix := range []string{"_sum", "_count"} {
			rest, ok := strings.CutPrefix(line, "maestro_stage_seconds"+suffix+`{stage="`)
			if !ok {
				continue
			}
			stage, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nodeCounters{}, fmt.Errorf("parsing %q: %w", line, err)
			}
			if suffix == "_sum" {
				nc.stageSum[stage] = v
			} else {
				nc.stageCount[stage] = v
			}
		}
	}
	return nc, nil
}

// delta subtracts an earlier scrape and adds the difference to acc.
func (acc *nodeCounters) addDelta(after, before nodeCounters) {
	acc.hits += after.hits - before.hits
	acc.misses += after.misses - before.misses
	acc.evictions += after.evictions - before.evictions
	acc.profHits += after.profHits - before.profHits
	acc.profMisses += after.profMisses - before.profMisses
	acc.rejected += after.rejected - before.rejected
	acc.shed += after.shed - before.shed
	if acc.stageSum == nil {
		acc.stageSum, acc.stageCount = map[string]float64{}, map[string]float64{}
	}
	for k, v := range after.stageSum {
		acc.stageSum[k] += v - before.stageSum[k]
		acc.stageCount[k] += after.stageCount[k] - before.stageCount[k]
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// stageMs is the mean of one maestro_stage_seconds stage, in ms.
func (acc *nodeCounters) stageMs(stage string) float64 {
	if acc.stageCount[stage] == 0 {
		return 0
	}
	return 1000 * acc.stageSum[stage] / acc.stageCount[stage]
}

// countingTransport counts HTTP exchanges and the most ever in flight,
// so the run can prove it never held more than two connections busy.
type countingTransport struct {
	base     http.RoundTripper
	attempts atomic.Int64
	inflight atomic.Int64
	peak     atomic.Int64
}

// RoundTrip counts an exchange as in flight until its body is closed.
func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	n := t.inflight.Add(1)
	for {
		p := t.peak.Load()
		if n <= p || t.peak.CompareAndSwap(p, n) {
			break
		}
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.inflight.Add(-1)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, t: t}
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	t    *countingTransport
	once sync.Once
}

func (b *countedBody) Close() error {
	b.once.Do(func() { b.t.inflight.Add(-1) })
	return b.ReadCloser.Close()
}

// maxConns is the load generator's concurrency limit: the box has two
// cores, and one of them belongs to the program under test.
const maxConns = 2

// checkConns fails the run if the load generator ever held more than
// maxConns exchanges in flight.
func checkConns(t *countingTransport, c *checker) {
	if p := t.peak.Load(); p > maxConns {
		c.check("connections", fmt.Errorf("%d exchanges in flight at once, limit %d", p, maxConns))
	}
}

func newCountingTransport() *countingTransport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxConns
	return &countingTransport{base: tr}
}

// setNodeRows records the rows read from the nodes' /v1/status and
// /metrics: the serve layer's caches, stages and refusals.
func (m *metricSet) setNodeRows(nc *nodeCounters, prefix string) {
	m.set(prefix+".profile_cache_hit_ratio", ratio(nc.profHits, nc.profHits+nc.profMisses))
	m.set("serve.result_cache_hit_ratio", ratio(nc.hits, nc.hits+nc.misses))
	m.set("serve.result_cache_evictions", float64(nc.evictions))
	m.set("serve.queue_ms", nc.stageMs("queue"))
	m.set("serve.cache_ms", nc.stageMs("cache"))
	m.set("serve.compute_ms", nc.stageMs("compute"))
	m.set("serve.rejected", float64(nc.rejected))
	m.set("serve.shed", float64(nc.shed))
}
