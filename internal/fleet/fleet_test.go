package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/tensor"
)

// The integration tests run real serve.Servers behind stable host
// names ("http://node0", ...) so the consistent-hash routing — and
// therefore which node each shard prefers — is deterministic across
// runs, independent of the random httptest ports.

// rewriteTransport maps stable node names onto live httptest listeners.
type rewriteTransport struct{ targets map[string]string }

func (rt rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tgt, ok := rt.targets[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("unknown fleet host %q", req.URL.Host)
	}
	r2 := req.Clone(req.Context())
	r2.URL.Host = tgt
	return http.DefaultTransport.RoundTrip(r2)
}

// newNodes starts n in-process serve nodes and returns their stable
// host names, the servers by host (for SetChaos), and an HTTP client
// that resolves the stable names.
func newNodes(t testing.TB, n int) ([]string, map[string]*serve.Server, *http.Client) {
	t.Helper()
	targets := make(map[string]string, n)
	servers := make(map[string]*serve.Server, n)
	hosts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%d", i)
		s := serve.New(serve.Options{Workers: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		u, err := url.Parse(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		targets[name] = u.Host
		servers["http://"+name] = s
		hosts = append(hosts, "http://"+name)
	}
	return hosts, servers, &http.Client{Transport: rewriteTransport{targets}}
}

// fastFleet is the test fleet configuration: instant failover (one
// attempt per node per dispatch, threshold-1 breakers that stay open)
// and a watchdog that is effectively off unless a test tightens it.
func fastFleet(hosts []string, hc *http.Client) Options {
	return Options{
		Hosts: hosts,
		Client: client.Options{
			HTTPClient:  hc,
			MaxAttempts: 1,
			Breaker:     client.BreakerOptions{FailureThreshold: 1, Cooldown: time.Minute},
		},
		ShardsPerNode:   2,
		InflightPerNode: 1,
		WatchTick:       5 * time.Millisecond,
		StragglerMin:    30 * time.Millisecond,
		StragglerFactor: 1e6,
	}
}

// fleetReq is the sweep the integration tests distribute: 8 (pe, p1)
// cells over 32 raw designs, small enough for test time but wide
// enough that every node serves shards.
func fleetReq() serve.DSERequest {
	return serve.DSERequest{
		Layer:    serve.LayerSpec{Model: "VGG16", Name: "CONV11"},
		Template: "KC-P",
		P1:       []int{16, 64},
		P2:       []int{8},
		PEs:      []int{64, 128, 256, 512},
		BWs:      []float64{16, 32},
		L1Grid:   []int64{64, 4096},
		L2Grid:   []int64{1 << 14},
	}
}

// truth computes the same sweep on a single in-process explorer, the
// way one maestro-serve node would: identical defaults, cost model,
// and shared profile cache.
func truth(t testing.TB, req serve.DSERequest) ([]dse.Point, dse.Stats) {
	t.Helper()
	pts, stats := dse.Explore(truthSpace(t, req))
	front := dse.Pareto(pts)
	dse.SortPoints(front)
	return front, stats
}

// truthSpace is the whole space of req as one node sweeps it.
func truthSpace(t testing.TB, req serve.DSERequest) dse.Space {
	t.Helper()
	layer, err := serve.ResolveLayerSpec(req.Layer)
	if err != nil {
		t.Fatal(err)
	}
	req = req.WithDefaults()
	return dse.Space{
		Layer: layer,
		Template: dse.Template{
			Name:  "KC-P",
			Build: func(p1, p2 int) dataflow.Dataflow { return dataflows.KCPSized(p1, p2) },
			P1:    req.P1, P2: req.P2,
		},
		PEs: req.PEs, BWs: req.BWs,
		L1Grid: req.L1Grid, L2Grid: req.L2Grid,
		AreaBudgetMM2: req.AreaBudgetMM2, PowerBudgetMW: req.PowerBudgetMW,
		Cost:     hw.Default28nm(),
		Profiles: core.DefaultProfileCache,
	}
}

// TestSweepMatchesSingleNode is the core acceptance check: a 4-node
// fleet's merged Pareto front is bit-identical to a single explorer
// run over the whole space.
func TestSweepMatchesSingleNode(t *testing.T) {
	hosts, _, hc := newNodes(t, 4)
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var streamed int
	var mu sync.Mutex
	f.opts.OnShard = func(sr ShardResult) {
		mu.Lock()
		streamed++
		mu.Unlock()
	}

	res, err := f.Sweep(context.Background(), fleetReq())
	if err != nil {
		t.Fatal(err)
	}
	front, stats := truth(t, fleetReq())

	if !reflect.DeepEqual(res.Pareto, front) {
		t.Fatalf("fleet front != single-node front\nfleet:  %+v\nsingle: %+v", res.Pareto, front)
	}
	if res.Raw != stats.Raw || res.Explored != stats.Explored || res.Valid != stats.Valid {
		t.Fatalf("fleet counters (raw=%d explored=%d valid=%d) != single-node (raw=%d explored=%d valid=%d)",
			res.Raw, res.Explored, res.Valid, stats.Raw, stats.Explored, stats.Valid)
	}
	if res.Shards != 8 {
		t.Fatalf("Shards = %d, want 8 (4 nodes x 2)", res.Shards)
	}
	mu.Lock()
	n := streamed
	mu.Unlock()
	if n != res.Shards {
		t.Fatalf("OnShard streamed %d results, want %d", n, res.Shards)
	}
	if res.ThroughputOpt == nil || res.EnergyOpt == nil || res.EDPOpt == nil {
		t.Fatal("missing per-objective optima")
	}
	// The optima are the local fold's, whole points and not just their
	// objective values: ties break canonically, not by shard order.
	local := dse.Summarize(truthSpace(t, fleetReq()))
	for _, o := range []struct {
		name      string
		got, want dse.Point
	}{
		{"ThroughputOpt", *res.ThroughputOpt, local.ThroughputOpt},
		{"EnergyOpt", *res.EnergyOpt, local.EnergyOpt},
		{"EDPOpt", *res.EDPOpt, local.EDPOpt},
	} {
		if o.got != o.want {
			t.Fatalf("%s = %+v, local Summarize %+v", o.name, o.got, o.want)
		}
	}
	if !reflect.DeepEqual(local.Front, front) {
		t.Fatalf("local Summarize front != single-node front")
	}
	// The optima agree with the local selectors on their objective
	// values (tie-broken identically, so the metrics must match).
	pts := make([]dse.Point, len(front))
	copy(pts, front)
	if p, ok := dse.ThroughputOpt(pts); !ok || p.Throughput != res.ThroughputOpt.Throughput {
		t.Fatalf("ThroughputOpt = %+v, want throughput %g", res.ThroughputOpt, p.Throughput)
	}
	if p, ok := dse.EnergyOpt(pts); !ok || p.EnergyPJ != res.EnergyOpt.EnergyPJ {
		t.Fatalf("EnergyOpt = %+v, want energy %g", res.EnergyOpt, p.EnergyPJ)
	}

	st := f.Stats()
	if st.Sweeps != 1 || st.Shards != 8 {
		t.Fatalf("Stats = %+v, want 1 sweep / 8 shards", st)
	}
	var served int64
	for _, ns := range st.PerNode {
		served += ns.Shards
	}
	if served != 8 {
		t.Fatalf("per-node shard counts sum to %d, want 8", served)
	}
}

// TestSweepBlackoutRedispatch kills one node mid-sweep with the chaos
// middleware — after it has served at least one shard — and checks the
// stranded shards re-dispatch to healthy nodes without changing the
// merged front.
func TestSweepBlackoutRedispatch(t *testing.T) {
	hosts, servers, hc := newNodes(t, 4)
	opts := fastFleet(hosts, hc)
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Pick the node preferred by the most shards: by pigeonhole it owns
	// at least two, so at least one is still pending when it goes dark
	// after its first completion.
	runs, _, err := f.plan(fleetReq())
	if err != nil {
		t.Fatal(err)
	}
	preferred := map[string]int{}
	for _, sr := range runs {
		preferred[sr.route[0]]++
	}
	target := hosts[0]
	for h, n := range preferred {
		if n > preferred[target] {
			target = h
		}
	}
	if preferred[target] < 2 {
		t.Fatalf("routing spread %v leaves target %q with <2 shards", preferred, target)
	}

	// The blackout trips when the target node's first result merges;
	// InflightPerNode=1 guarantees its other shards have not started.
	var once sync.Once
	f.opts.OnShard = func(sr ShardResult) {
		if sr.Host == target {
			once.Do(func() {
				servers[target].SetChaos(serve.Chaos{ErrorRate: 1, ErrorCode: http.StatusServiceUnavailable})
			})
		}
	}

	res, err := f.Sweep(context.Background(), fleetReq())
	if err != nil {
		t.Fatal(err)
	}
	front, _ := truth(t, fleetReq())
	if !reflect.DeepEqual(res.Pareto, front) {
		t.Fatalf("post-blackout front != single-node front\nfleet:  %+v\nsingle: %+v", res.Pareto, front)
	}
	if res.Redispatched == 0 {
		t.Fatal("blackout caused no re-dispatches")
	}
	st := f.Stats()
	if st.PerNode[target].Breaker != client.BreakerOpen {
		t.Fatalf("target breaker = %v, want open", st.PerNode[target].Breaker)
	}
	if st.PerNode[target].Errors == 0 {
		t.Fatal("target node recorded no errors")
	}
}

// TestSweepStealsStraggler slows one node's service time two orders of
// magnitude past its peer and checks, for both sweep kinds, that the
// watchdog re-issues its shards on the fast node, with at-most-once
// accounting keeping the answer intact.
func TestSweepStealsStraggler(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plan  func(*Fleet) ([]*shardRun, error)
		sweep func(*testing.T, *Fleet) Dispatch
	}{
		{"dse", func(f *Fleet) ([]*shardRun, error) {
			runs, _, err := f.plan(fleetReq())
			return runs, err
		}, func(t *testing.T, f *Fleet) Dispatch {
			res, err := f.Sweep(context.Background(), fleetReq())
			if err != nil {
				t.Fatal(err)
			}
			if front, _ := truth(t, fleetReq()); !reflect.DeepEqual(res.Pareto, front) {
				t.Fatalf("post-steal front != single-node front\nfleet:  %+v\nsingle: %+v", res.Pareto, front)
			}
			return res.Dispatch
		}},
		{"fusion", func(f *Fleet) ([]*shardRun, error) {
			return f.planFusion(fusionFleetReq().WithDefaults())
		}, func(t *testing.T, f *Fleet) Dispatch {
			res, err := f.SweepFusion(context.Background(), fusionFleetReq())
			if err != nil {
				t.Fatal(err)
			}
			if want := fusionTruth(t, fusionFleetReq()); !reflect.DeepEqual(res.Points, want) {
				t.Fatalf("post-steal points != local truth\nfleet: %+v\nlocal: %+v", res.Points, want)
			}
			return res.Dispatch
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hosts, servers, hc := newNodes(t, 2)
			opts := fastFleet(hosts, hc)
			opts.StragglerFactor = 3
			opts.StragglerMin = 25 * time.Millisecond
			opts.WatchTick = 2 * time.Millisecond
			f, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			runs, err := tc.plan(f)
			if err != nil {
				t.Fatal(err)
			}
			preferred := map[string]int{}
			for _, sr := range runs {
				preferred[sr.route[0]]++
			}
			var slow string
			for _, h := range hosts {
				if preferred[h] > 0 {
					slow = h // any node that owns shards can straggle
				}
			}
			if slow == "" {
				t.Fatalf("routing spread %v assigns no shards", preferred)
			}
			servers[slow].SetChaos(serve.Chaos{Latency: 2 * time.Second})

			start := time.Now()
			d := tc.sweep(t, f)
			if d.Stolen == 0 {
				t.Fatal("straggling node triggered no work-stealing")
			}
			// Every stalled shard was stolen onto the fast node well before
			// the injected 2s service time elapsed.
			if el := time.Since(start); el > 1500*time.Millisecond {
				t.Fatalf("sweep took %v; stealing should beat the 2s straggler", el)
			}
		})
	}
}

// TestSweepAllNodesDownFails pins the failure path: when every node
// rejects a shard for the whole failover budget, Sweep reports which
// shard gave up and the underlying client error.
func TestSweepAllNodesDownFails(t *testing.T) {
	hosts, servers, hc := newNodes(t, 2)
	for _, s := range servers {
		s.SetChaos(serve.Chaos{ErrorRate: 1, ErrorCode: http.StatusInternalServerError})
	}
	opts := fastFleet(hosts, hc)
	opts.Rounds = 1
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	_, err = f.Sweep(context.Background(), fleetReq())
	if err == nil {
		t.Fatal("sweep against dead fleet succeeded")
	}
	if !strings.Contains(err.Error(), "failed after") {
		t.Fatalf("error %q does not name the exhausted shard", err)
	}
}

// exchangeCounter counts the API requests a fleet sends.
type exchangeCounter struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (c *exchangeCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasPrefix(req.URL.Path, "/v1/") {
		c.n.Add(1)
	}
	return c.next.RoundTrip(req)
}

// TestHardRefusalFailsSweep checks both sweep kinds against nodes that
// refuse every request with a 400: a hard 4xx is the request's fault,
// so the sweep fails at once with the node's error instead of walking
// its failover budget, and nothing is redispatched.
func TestHardRefusalFailsSweep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep func(context.Context, *Fleet) error
	}{
		{"dse", func(ctx context.Context, f *Fleet) error {
			_, err := f.Sweep(ctx, fleetReq())
			return err
		}},
		{"fusion", func(ctx context.Context, f *Fleet) error {
			_, err := f.SweepFusion(ctx, fusionFleetReq())
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hosts, servers, hc := newNodes(t, 2)
			for _, s := range servers {
				s.SetChaos(serve.Chaos{ErrorRate: 1, ErrorCode: http.StatusBadRequest})
			}
			ex := &exchangeCounter{next: hc.Transport}
			opts := fastFleet(hosts, &http.Client{Transport: ex})
			f, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()

			err = tc.sweep(context.Background(), f)
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
				t.Fatalf("sweep error = %v, want the node's 400", err)
			}
			if exchanges, shards := ex.n.Load(), int64(len(hosts)*opts.ShardsPerNode); exchanges > shards {
				t.Errorf("%d HTTP exchanges for %d shards: a refused shard was retried", exchanges, shards)
			}
			if n := f.Stats().Redispatched; n != 0 {
				t.Errorf("redispatched %d shards after a hard refusal", n)
			}
		})
	}
}

// TestSweepShardsHugeSpaceUnderCap checks the coordinator raises the
// shard count so each shard, the largest of an uneven split included,
// clears a server's raw-size cap, and that a space too large even at
// single-cell granularity is refused locally.
func TestSweepShardsHugeSpaceUnderCap(t *testing.T) {
	hosts, _, hc := newNodes(t, 1)
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	big := fleetReq()
	big.BWs = nil    // defaults: 4
	big.L1Grid = nil // defaults: 11
	big.L2Grid = nil // defaults: 11
	big.P2 = []int{4, 8, 16, 32, 64}
	big.P1 = []int{8, 16, 32, 64, 128, 256, 512}
	big.PEs = nil
	for pe := 16; pe <= 1024; pe += 16 {
		big.PEs = append(big.PEs, pe)
	}
	runs, _, err := f.plan(big)
	if err != nil {
		t.Fatal(err)
	}
	inner := int64(5 * 4 * 11 * 11)
	for _, sr := range runs {
		if raw := inner * int64(len(sr.shard.PEs)*len(sr.shard.P1)); raw > serve.MaxDSEGrid {
			t.Fatalf("shard %d spans %d raw designs, over cap %d", sr.shard.Index, raw, serve.MaxDSEGrid)
		}
	}

	// maestro-dse's full KC-P grids: 64 PE counts do not split evenly
	// into ⌈raw/cap⌉ = 24 shards, so the raise must go on until the
	// largest shard fits, not just the average one.
	big.BWs = nil
	for b := 1.0; b <= 128; b *= 2 {
		big.BWs = append(big.BWs, b, b*1.5)
	}
	big.L1Grid = dse.DefaultGrid(64, 1<<20, 1.45)
	big.L2Grid = dse.DefaultGrid(1<<12, 1<<24, 1.4)
	if runs, _, err = f.plan(big); err != nil {
		t.Fatal(err)
	}
	inner = int64(len(big.P2) * len(big.BWs) * len(big.L1Grid) * len(big.L2Grid))
	for _, sr := range runs {
		if raw := inner * int64(len(sr.shard.PEs)*len(sr.shard.P1)); raw > serve.MaxDSEGrid {
			t.Fatalf("maestro-dse grids: shard %d of %d spans %d raw designs, over cap %d",
				sr.shard.Index, len(runs), raw, serve.MaxDSEGrid)
		}
	}

	big.BWs = make([]float64, 0, 2048)
	for i := 0; i < 2048; i++ {
		big.BWs = append(big.BWs, float64(i+1))
	}
	if _, _, err := f.plan(big); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversized inner grid err = %v, want per-shard cap refusal", err)
	}
}

// TestRingProperties pins the consistent-hash contract: orders are
// deterministic, cover every host exactly once, and removing a host
// only reroutes the keys that preferred it.
func TestRingProperties(t *testing.T) {
	hosts := []string{"http://a", "http://b", "http://c", "http://d"}
	r1 := newRing(hosts)
	r2 := newRing(hosts)
	r3 := newRing(hosts[:3]) // drop http://d

	layer, err := serve.ResolveLayerSpec(serve.LayerSpec{Model: "VGG16", Name: "CONV11"})
	if err != nil {
		t.Fatal(err)
	}
	moved, kept := 0, 0
	for pe := 8; pe <= 2048; pe += 8 {
		key := serve.DSERouteKey(layer, "KC-P", []int{pe})
		o1, o2 := r1.order(key), r2.order(key)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("ring order not deterministic for pe=%d: %v vs %v", pe, o1, o2)
		}
		seen := map[string]bool{}
		for _, h := range o1 {
			seen[h] = true
		}
		if len(o1) != len(hosts) || len(seen) != len(hosts) {
			t.Fatalf("order %v does not cover hosts exactly once", o1)
		}
		if o1[0] == "http://d" {
			moved++
		} else {
			kept++
			if got := r3.order(key)[0]; got != o1[0] {
				t.Fatalf("pe=%d: dropping an unrelated host moved preference %s -> %s", pe, o1[0], got)
			}
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate spread: moved=%d kept=%d", moved, kept)
	}
}

// zooConvs picks n conv layers at a fixed stride through the zoo.
func zooConvs(n int) []serve.LayerSpec {
	var all []serve.LayerSpec
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			if li.Layer.Op == tensor.Conv2D || li.Layer.Op == tensor.PointwiseConv {
				all = append(all, serve.LayerSpec{Model: name, Name: li.Layer.Name})
			}
		}
	}
	out := make([]serve.LayerSpec, n)
	for i := range out {
		out[i] = all[i*len(all)/n]
	}
	return out
}

// TestPlanBoundedLoad pins bounded-load placement over fixed host
// names (nothing listens on them; plan only hashes them): no host holds
// more than ⌈shards/hosts⌉ of a sweep's shards, plans are reproducible,
// every route is a failover order over all hosts, and a shard leaves
// its ring primary only when the primary is already full.
func TestPlanBoundedLoad(t *testing.T) {
	pool := []string{"http://127.0.0.1:18081", "http://127.0.0.1:18082",
		"http://127.0.0.1:18083", "http://127.0.0.1:18084"}
	layers := zooConvs(12)
	for n := 2; n <= len(pool); n++ {
		hosts := pool[:n]
		sorted := append([]string(nil), hosts...)
		sort.Strings(sorted)
		for _, spn := range []int{1, 2, 4} {
			f, err := New(Options{Hosts: hosts, ShardsPerNode: spn})
			if err != nil {
				t.Fatal(err)
			}
			for _, ls := range layers {
				for _, tmpl := range []string{"KC-P", "YR-P", "YX-P"} {
					req := serve.DSERequest{Layer: ls, Template: tmpl}
					name := fmt.Sprintf("%d hosts, %d/node, %s %s %s", n, spn, ls.Model, ls.Name, tmpl)
					runs, layer, err := f.plan(req)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					again, _, err := f.plan(req)
					if err != nil {
						t.Fatal(err)
					}
					limit := (len(runs) + n - 1) / n
					load := map[string]int{}
					for i, sr := range runs {
						if !reflect.DeepEqual(sr.route, again[i].route) {
							t.Fatalf("%s: shard %d routes differ between plans: %v vs %v", name, i, sr.route, again[i].route)
						}
						got := append([]string(nil), sr.route...)
						sort.Strings(got)
						if !reflect.DeepEqual(got, sorted) {
							t.Fatalf("%s: shard %d route %v is not a permutation of %v", name, i, sr.route, hosts)
						}
						primary := f.ring.order(serve.DSERouteKey(layer, tmpl, sr.shard.PEs))[0]
						if sr.route[0] != primary && load[primary] < limit {
							t.Fatalf("%s: shard %d left primary %s holding %d < %d shards", name, i, primary, load[primary], limit)
						}
						if load[sr.route[0]]++; load[sr.route[0]] > limit {
							t.Fatalf("%s: %s holds %d of %d shards, over ⌈shards/hosts⌉ = %d", name, sr.route[0], load[sr.route[0]], len(runs), limit)
						}
					}
				}
			}
			f.Close()
		}
	}
}

// TestNewRejectsBadConfig pins the constructor seams: the host list is
// validated up front so a typo fails at New, not as a mysterious ring
// imbalance or dial error mid-sweep.
func TestNewRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name  string
		hosts []string
	}{
		{"no hosts", nil},
		{"exact duplicate", []string{"http://a", "http://a"}},
		{"duplicate modulo trailing slash", []string{"http://a:8080", "http://a:8080/"}},
		{"empty entry", []string{"http://a", ""}},
		{"blank entry", []string{"http://a", "   "}},
		{"missing scheme", []string{"node0:8080"}},
		{"unsupported scheme", []string{"ftp://a:21"}},
		{"missing authority", []string{"http://"}},
		{"query string", []string{"http://a:8080?x=1"}},
		{"fragment", []string{"http://a:8080#frag"}},
		{"unparseable", []string{"http://a:8080:9090:bad\x7f"}},
	}
	for _, tc := range cases {
		if _, err := New(Options{Hosts: tc.hosts}); err == nil {
			t.Errorf("%s: New accepted hosts %q", tc.name, tc.hosts)
		}
	}
	// The happy path still holds, trailing slash and all.
	f, err := New(Options{Hosts: []string{"http://a:8080", "https://b:8443/base/"}})
	if err != nil {
		t.Fatalf("valid hosts rejected: %v", err)
	}
	f.Close()
}
