package fleet

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/serve"
)

// fusionFleetReq sweeps four budgets so a two-node fleet splits the
// grid into multiple shards (granularity stays whole per shard).
func fusionFleetReq() serve.FusionRequest {
	return serve.FusionRequest{
		Model:          "AlexNet",
		HW:             serve.HWSpec{Preset: "Accel256", L2Bytes: 256 << 10},
		Dataflow:       "KC-P",
		L2Grid:         []int64{0, 64 << 10, 256 << 10, 1 << 20},
		MaxGroupLayers: []int{1, 8},
	}
}

// fusionTruth prices the same plane on a single in-process explorer.
func fusionTruth(t testing.TB, req serve.FusionRequest) []dse.FusionPoint {
	t.Helper()
	m, ok := models.ByName(req.Model)
	if !ok {
		t.Fatalf("unknown model %q", req.Model)
	}
	cfg := hw.Accel256()
	cfg.L2Size = req.HW.L2Bytes
	points, _, err := dse.ExploreFusion(dse.FusionSpace{
		Model:          m,
		Cfg:            cfg.Normalize(),
		Dataflow:       req.Dataflow,
		L2Grid:         req.L2Grid,
		MaxGroupLayers: req.MaxGroupLayers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestSweepFusionMatchesLocal distributes the fusion sweep across two
// nodes and checks the merged plane is exactly the single-process
// sweep: same points, same order, same best.
func TestSweepFusionMatchesLocal(t *testing.T) {
	hosts, _, hc := newNodes(t, 2)
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := fusionFleetReq()
	res, err := f.SweepFusion(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := fusionTruth(t, req)
	if !reflect.DeepEqual(res.Points, want) {
		t.Fatalf("distributed points diverge from local truth:\n got %+v\nwant %+v", res.Points, want)
	}
	if res.Shards < 2 {
		t.Fatalf("sweep used %d shards, want >= 2", res.Shards)
	}
	if res.Model != "AlexNet" || res.MACs <= 0 {
		t.Fatalf("model echo wrong: %+v", res)
	}
	wantBest, _ := dse.BestFusion(want)
	if res.Best == nil || *res.Best != wantBest {
		t.Fatalf("best = %+v, want %+v", res.Best, wantBest)
	}
	if st := f.Stats(); st.Sweeps != 1 || st.Shards != int64(res.Shards) {
		t.Fatalf("fleet stats %+v after one sweep of %d shards", st, res.Shards)
	}
}

// inflightTransport records, per host, the most /v1/fusion exchanges
// in flight at once: an exchange counts from the request until its
// response body is closed.
type inflightTransport struct {
	next http.RoundTripper

	mu        sync.Mutex
	cur, peak map[string]int
	requests  int
}

func (it *inflightTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/fusion" {
		return it.next.RoundTrip(req)
	}
	host := req.URL.Host
	it.mu.Lock()
	it.requests++
	it.cur[host]++
	it.peak[host] = max(it.peak[host], it.cur[host])
	it.mu.Unlock()
	done := func() {
		it.mu.Lock()
		it.cur[host]--
		it.mu.Unlock()
	}
	resp, err := it.next.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = closeHook{resp.Body, done}
	return resp, nil
}

type closeHook struct {
	io.ReadCloser
	done func()
}

func (c closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.done()
	return err
}

// TestSweepFusionInflightPerNode checks that SweepFusion honours
// InflightPerNode: an eight-budget grid cut into eight chunks over two
// nodes never has two of the sweep's requests on one node at once, and
// the merged plane is still the local one.
func TestSweepFusionInflightPerNode(t *testing.T) {
	hosts, _, hc := newNodes(t, 2)
	it := &inflightTransport{next: hc.Transport, cur: map[string]int{}, peak: map[string]int{}}
	opts := fastFleet(hosts, &http.Client{Transport: it})
	opts.InflightPerNode = 1
	opts.ShardsPerNode = 4
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := fusionFleetReq()
	req.L2Grid = nil
	for i := 0; i < 8; i++ {
		req.L2Grid = append(req.L2Grid, int64(32<<10)<<(i/2)+int64(i%2)*(16<<10))
	}
	res, err := f.SweepFusion(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, fusionTruth(t, req)) {
		t.Fatal("distributed points diverge from local truth")
	}
	it.mu.Lock()
	defer it.mu.Unlock()
	if res.Shards != 8 || it.requests != 8 || len(it.peak) != len(hosts) {
		t.Fatalf("sweep sent %d requests to %d nodes for %d chunks, want 8 to %d", it.requests, len(it.peak), res.Shards, len(hosts))
	}
	for h, peak := range it.peak {
		if peak > 1 {
			t.Errorf("%s served %d fusion requests at once, over InflightPerNode 1", h, peak)
		}
	}
}

// TestSweepFusionFailover routes half the ring to a dead host: every
// shard must still complete via failover, with redispatches counted.
func TestSweepFusionFailover(t *testing.T) {
	hosts, _, hc := newNodes(t, 1)
	hosts = append(hosts, "http://deadnode")
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := fusionFleetReq()
	res, err := f.SweepFusion(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, fusionTruth(t, req)) {
		t.Fatal("failover sweep diverged from local truth")
	}
	if res.Redispatched == 0 {
		t.Fatal("dead node cost no redispatches")
	}
}

// TestSweepFusionEmptyGrid pins the coordinator-side validation.
func TestSweepFusionEmptyGrid(t *testing.T) {
	hosts, _, hc := newNodes(t, 1)
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	req := fusionFleetReq()
	req.Model = "NoSuchNet"
	if _, err := f.SweepFusion(context.Background(), req); err == nil {
		t.Fatal("unknown model swept successfully")
	}
}
