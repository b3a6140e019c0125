package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// This file is the fleet-level chaos harness the durability tentpole is
// proven by: real serve nodes are killed and restarted mid-sweep, and
// the coordinator itself is "SIGKILL'd" — the Fleet dropped on the
// floor with shards half done — then rebuilt from the same
// CheckpointDir. Every resumed sweep must be bit-identical to the
// single-process truth, with only the unjournaled shards re-dispatched.

// chaosCluster runs real serve nodes behind stable names and supports
// abrupt kill / clean restart of individual nodes while a fleet is
// dispatching against them.
type chaosCluster struct {
	t     *testing.T
	hosts []string
	hc    *http.Client

	mu        sync.Mutex
	targets   map[string]string // stable name -> live listener host; "" = down
	servers   map[string]*serve.Server
	listeners map[string]*httptest.Server
	opts      serve.Options
}

// clusterTransport resolves stable node names against the cluster's
// live listeners; a killed node fails at dial level, exactly like a
// machine that dropped off the network.
type clusterTransport struct{ c *chaosCluster }

func (ct clusterTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct.c.mu.Lock()
	tgt := ct.c.targets[req.URL.Host]
	ct.c.mu.Unlock()
	if tgt == "" {
		return nil, fmt.Errorf("node %q is down", req.URL.Host)
	}
	r2 := req.Clone(req.Context())
	r2.URL.Host = tgt
	return http.DefaultTransport.RoundTrip(r2)
}

func newChaosCluster(t *testing.T, n int, opts serve.Options) *chaosCluster {
	t.Helper()
	c := &chaosCluster{
		t:         t,
		targets:   map[string]string{},
		servers:   map[string]*serve.Server{},
		listeners: map[string]*httptest.Server{},
		opts:      opts,
	}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("http://node%d", i)
		c.hosts = append(c.hosts, host)
		c.start(host)
	}
	c.hc = &http.Client{Transport: clusterTransport{c}}
	t.Cleanup(func() {
		for _, host := range c.hosts {
			c.kill(host)
		}
	})
	return c
}

// start boots (or re-boots) one node.
func (c *chaosCluster) start(host string) {
	c.t.Helper()
	s := serve.New(c.opts)
	ts := httptest.NewServer(s.Handler())
	u, err := url.Parse(ts.URL)
	if err != nil {
		c.t.Fatal(err)
	}
	name := hostName(c.t, host)
	c.mu.Lock()
	c.targets[name] = u.Host
	c.servers[host] = s
	c.listeners[host] = ts
	c.mu.Unlock()
}

// kill takes a node off the network abruptly: new dials fail
// immediately, in-flight exchanges are severed, then the dead process
// is reaped in the background (a SIGKILL'd server never drains).
func (c *chaosCluster) kill(host string) {
	name := hostName(c.t, host)
	c.mu.Lock()
	ts, s := c.listeners[host], c.servers[host]
	c.targets[name] = ""
	delete(c.listeners, host)
	delete(c.servers, host)
	c.mu.Unlock()
	if ts == nil {
		return
	}
	ts.CloseClientConnections()
	go func() {
		ts.Close()
		s.Close()
	}()
}

// restart brings a previously-killed node back with a cold cache.
func (c *chaosCluster) restart(host string) { c.start(host) }

// server returns a live node's serve.Server (nil when killed).
func (c *chaosCluster) server(host string) *serve.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.servers[host]
}

// setChaosAll applies a serve-side fault spec to every live node.
func (c *chaosCluster) setChaosAll(spec serve.Chaos) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.servers {
		s.SetChaos(spec)
	}
}

func hostName(t *testing.T, host string) string {
	t.Helper()
	u, err := url.Parse(host)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// waitHealth polls the fleet's probed view until host reaches want.
func waitHealth(t *testing.T, f *Fleet, host string, want Health) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.Health()[host] == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("node %s never reached %v (now %v)", host, want, f.Health()[host])
}

// checkpointOpts is fastFleet plus a checkpoint dir.
func checkpointOpts(hosts []string, hc *http.Client, dir string) Options {
	o := fastFleet(hosts, hc)
	o.CheckpointDir = dir
	return o
}

// TestChaosCoordinatorCrashResumeDSE is the tentpole invariant for DSE
// sweeps: kill the coordinator after k of n shards completed, re-create
// the fleet from the same CheckpointDir, and the merged result is
// DeepEqual to an uninterrupted run while only the unjournaled shards
// are re-dispatched.
func TestChaosCoordinatorCrashResumeDSE(t *testing.T) {
	cluster := newChaosCluster(t, 4, serve.Options{Workers: 1})
	// Stagger shard completion so the cancel lands with the second wave
	// still undispatched; without the latency all 8 shards can finish
	// before the "crash" takes effect.
	cluster.setChaosAll(serve.Chaos{Latency: 25 * time.Millisecond})
	dir := t.TempDir()
	req := fleetReq()
	wantFront, wantStats := truth(t, req)

	// Run 1: the coordinator "crashes" (sweep context cancelled, Fleet
	// dropped) after the first shard result is accepted and journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := checkpointOpts(cluster.hosts, cluster.hc, dir)
	var journaled int32
	opts.OnShard = func(sr ShardResult) {
		atomic.AddInt32(&journaled, 1)
		cancel()
	}
	f1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Sweep(ctx, req); err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	f1.Close() // the "SIGKILL": nothing of f1 survives but the journal
	k := int(atomic.LoadInt32(&journaled))
	if k < 1 || k >= 8 {
		t.Fatalf("crash window missed: %d of 8 shards completed before the kill", k)
	}

	// Run 2: a fresh coordinator resumes from the same CheckpointDir.
	opts2 := checkpointOpts(cluster.hosts, cluster.hc, dir)
	opts2.Resume = true
	var replayed, dispatched int32
	opts2.OnShard = func(sr ShardResult) {
		if sr.Replayed {
			atomic.AddInt32(&replayed, 1)
		} else {
			atomic.AddInt32(&dispatched, 1)
		}
	}
	f2, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	res, err := f2.Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("resumed sweep failed: %v", err)
	}

	if !reflect.DeepEqual(res.Pareto, wantFront) {
		t.Fatalf("resumed front != single-process truth\nresumed: %+v\ntruth:   %+v", res.Pareto, wantFront)
	}
	if res.Raw != wantStats.Raw || res.Explored != wantStats.Explored || res.Valid != wantStats.Valid {
		t.Fatalf("resumed counters (raw=%d explored=%d valid=%d) != truth (raw=%d explored=%d valid=%d)",
			res.Raw, res.Explored, res.Valid, wantStats.Raw, wantStats.Explored, wantStats.Valid)
	}
	if res.Replayed != k {
		t.Fatalf("Replayed = %d, want the %d journaled shards", res.Replayed, k)
	}
	if got := int(atomic.LoadInt32(&replayed)); got != k {
		t.Fatalf("OnShard streamed %d replayed shards, want %d", got, k)
	}
	if got := int(atomic.LoadInt32(&dispatched)); got != 8-k {
		t.Fatalf("resumed run dispatched %d shards, want exactly the %d missing ones", got, 8-k)
	}
	if res.JournalErrors != 0 {
		t.Fatalf("JournalErrors = %d, want 0", res.JournalErrors)
	}
	// The completed sweep removed its journal: a third run replays
	// nothing and recomputes cleanly.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("checkpoint dir not empty after completed sweep: %v", entries)
	}
	res3, err := f2.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Replayed != 0 || !reflect.DeepEqual(res3.Pareto, wantFront) {
		t.Fatalf("post-finish sweep replayed %d shards or diverged", res3.Replayed)
	}
}

// TestChaosCoordinatorCrashResumeFusion is the same invariant for
// fusion sweeps.
func TestChaosCoordinatorCrashResumeFusion(t *testing.T) {
	cluster := newChaosCluster(t, 2, serve.Options{Workers: 1})
	cluster.setChaosAll(serve.Chaos{Latency: 25 * time.Millisecond})
	dir := t.TempDir()
	req := fusionFleetReq()
	want := fusionTruth(t, req)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := checkpointOpts(cluster.hosts, cluster.hc, dir)
	var journaled int32
	opts.OnShard = func(sr ShardResult) {
		atomic.AddInt32(&journaled, 1)
		cancel()
	}
	f1, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := f1.SweepFusion(ctx, req)
	f1.Close()
	k := int(atomic.LoadInt32(&journaled))
	if err == nil {
		// With few chunks the whole sweep can outrun the cancel; that is
		// not a crash, so re-arm with zero tolerance: nothing to resume.
		t.Fatalf("interrupted fusion sweep reported success (%d shards)", res1.Shards)
	}
	if k < 1 {
		t.Fatal("no fusion shard journaled before the kill")
	}

	opts2 := checkpointOpts(cluster.hosts, cluster.hc, dir)
	opts2.Resume = true
	var replayed int32
	opts2.OnShard = func(sr ShardResult) {
		if sr.Replayed {
			atomic.AddInt32(&replayed, 1)
		}
	}
	f2, err := New(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	res, err := f2.SweepFusion(context.Background(), req)
	if err != nil {
		t.Fatalf("resumed fusion sweep failed: %v", err)
	}
	if !reflect.DeepEqual(res.Points, want) {
		t.Fatalf("resumed fusion points != single-process truth\nresumed: %+v\ntruth:   %+v", res.Points, want)
	}
	if res.Replayed != k || int(atomic.LoadInt32(&replayed)) != k {
		t.Fatalf("Replayed = %d (streamed %d), want %d", res.Replayed, atomic.LoadInt32(&replayed), k)
	}
	if res.Shards-res.Replayed > res.Shards-k {
		t.Fatalf("resumed run re-dispatched %d of %d shards, want <= %d", res.Shards-res.Replayed, res.Shards, res.Shards-k)
	}
	wantBest, _ := dse.BestFusion(want)
	if res.Best == nil || *res.Best != wantBest {
		t.Fatalf("resumed best = %+v, want %+v", res.Best, wantBest)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("checkpoint dir not empty after completed fusion sweep: %v", entries)
	}
}

// TestChaosNodeKillFailoverAndReadmit is the membership half of the
// tentpole: a node killed mid-sweep is marked dead by the prober, its
// shards fail over without corrupting the merged front, and after a
// restart the node is re-admitted by consecutive successful probes.
func TestChaosNodeKillFailoverAndReadmit(t *testing.T) {
	cluster := newChaosCluster(t, 4, serve.Options{Workers: 1})
	req := fleetReq()
	wantFront, _ := truth(t, req)

	opts := fastFleet(cluster.hosts, cluster.hc)
	opts.Probe = ProbeOptions{Interval: 5 * time.Millisecond, Timeout: 250 * time.Millisecond, FailAfter: 2, UpAfter: 2}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, h := range cluster.hosts {
		waitHealth(t, f, h, HealthUp)
	}

	// Kill the node that owns the most shards once its first result has
	// merged; its remaining shards must fail over.
	runs, _, err := f.plan(req)
	if err != nil {
		t.Fatal(err)
	}
	preferred := map[string]int{}
	for _, sr := range runs {
		preferred[sr.route[0]]++
	}
	victim := cluster.hosts[0]
	for h, n := range preferred {
		if n > preferred[victim] {
			victim = h
		}
	}
	var once sync.Once
	f.opts.OnShard = func(sr ShardResult) {
		if sr.Host == victim {
			once.Do(func() { cluster.kill(victim) })
		}
	}

	res, err := f.Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("sweep across the kill failed: %v", err)
	}
	if !reflect.DeepEqual(res.Pareto, wantFront) {
		t.Fatal("post-kill front diverged from truth")
	}
	waitHealth(t, f, victim, HealthDead)
	if f.routable(victim) {
		t.Fatal("dead node still routable")
	}

	// Restart: consecutive successful probes re-admit the node, and the
	// next sweep can use the whole fleet again.
	cluster.restart(victim)
	waitHealth(t, f, victim, HealthUp)
	if !f.routable(victim) {
		t.Fatal("re-admitted node not routable")
	}
	res2, err := f.Sweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Pareto, wantFront) {
		t.Fatal("post-readmit front diverged from truth")
	}
}
