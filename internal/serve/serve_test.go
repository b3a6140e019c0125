package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflows"
)

// newTestServer builds a Server behind an httptest front end; both are
// torn down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

func analyze(t *testing.T, url string, req AnalyzeRequest) (int, AnalyzeResponse, []byte) {
	t.Helper()
	code, data := post(t, url+"/v1/analyze", marshal(t, req))
	var out AnalyzeResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("unmarshal response: %v\n%s", err, data)
		}
	}
	return code, out, data
}

// zooReq is the acceptance-criterion request: a model-zoo layer with a
// Table 3 dataflow on a preset accelerator.
func zooReq() AnalyzeRequest {
	return AnalyzeRequest{
		Layer:    LayerSpec{Model: "VGG16", Name: "CONV1"},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
	}
}

// inlineReq builds a small distinct inline-layer request.
func inlineReq(name string, k int) AnalyzeRequest {
	return AnalyzeRequest{
		Layer:    LayerSpec{Name: name, K: k, C: 16, Y: 16, X: 16, R: 3, S: 3},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
	}
}

func metricValue(t *testing.T, url, metric string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(data), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, metric+" %d", &v); n == 1 && strings.HasPrefix(line, metric+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", metric, data)
	return 0
}

func TestAnalyzeAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	code, first, data := analyze(t, ts.URL, zooReq())
	if code != http.StatusOK {
		t.Fatalf("first analyze: status %d: %s", code, data)
	}
	if first.Cached {
		t.Errorf("first request reported cached")
	}
	if first.Layer != "CONV1" || first.Dataflow != "KC-P" || first.HW != "Accel-256" {
		t.Errorf("echoed identity = %q/%q/%q", first.Layer, first.Dataflow, first.HW)
	}
	if first.Runtime <= 0 || first.MACs <= 0 || first.UsedPEs <= 0 {
		t.Errorf("implausible result: runtime=%d macs=%d pes=%d",
			first.Runtime, first.MACs, first.UsedPEs)
	}
	if first.Utilization <= 0 || first.Utilization > 1 {
		t.Errorf("utilization %v out of (0,1]", first.Utilization)
	}
	if first.Energy.Total <= 0 {
		t.Errorf("energy total %v", first.Energy.Total)
	}
	if len(first.Key) != 64 {
		t.Errorf("key %q is not 64 hex chars", first.Key)
	}

	if hits := metricValue(t, ts.URL, "maestro_cache_hits_total"); hits != 0 {
		t.Errorf("hits before repeat = %d; want 0", hits)
	}

	code, second, data := analyze(t, ts.URL, zooReq())
	if code != http.StatusOK {
		t.Fatalf("second analyze: status %d: %s", code, data)
	}
	if !second.Cached {
		t.Errorf("identical repeat not served from cache")
	}
	if second.Key != first.Key || second.Runtime != first.Runtime {
		t.Errorf("cached result differs: key %q vs %q, runtime %d vs %d",
			second.Key, first.Key, second.Runtime, first.Runtime)
	}

	if hits := metricValue(t, ts.URL, "maestro_cache_hits_total"); hits != 1 {
		t.Errorf("hits after repeat = %d; want 1", hits)
	}
	if misses := metricValue(t, ts.URL, "maestro_cache_misses_total"); misses != 1 {
		t.Errorf("misses = %d; want 1", misses)
	}
	if evals := metricValue(t, ts.URL, "maestro_evaluations_total"); evals != 1 {
		t.Errorf("evaluations = %d; want 1", evals)
	}
}

// TestAnalyzeCanonicalSpellings: the same mapping spelled as a library
// name and as its DSL source must hash to the same key, so the second
// spelling is a cache hit.
func TestAnalyzeCanonicalSpellings(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	byName := zooReq()
	code, r1, data := analyze(t, ts.URL, byName)
	if code != http.StatusOK {
		t.Fatalf("by-name analyze: status %d: %s", code, data)
	}

	byDSL := byName
	byDSL.Dataflow = DataflowSpec{Name: "KC-P", DSL: dataflows.Sources["KC-P"]}
	code, r2, data := analyze(t, ts.URL, byDSL)
	if code != http.StatusOK {
		t.Fatalf("by-DSL analyze: status %d: %s", code, data)
	}
	if r2.Key != r1.Key {
		t.Errorf("DSL spelling hashed differently: %q vs %q", r2.Key, r1.Key)
	}
	if !r2.Cached {
		t.Errorf("DSL spelling of cached mapping missed the cache")
	}

	other := byName
	other.Dataflow = DataflowSpec{Name: "X-P"}
	code, r3, data := analyze(t, ts.URL, other)
	if code != http.StatusOK {
		t.Fatalf("X-P analyze: status %d: %s", code, data)
	}
	if r3.Key == r1.Key {
		t.Errorf("distinct dataflows share key %q", r3.Key)
	}
}

func TestAnalyzeNoCache(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	req := zooReq()
	if code, _, data := analyze(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("prime: status %d: %s", code, data)
	}
	req.NoCache = true
	code, resp, data := analyze(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("no_cache analyze: status %d: %s", code, data)
	}
	if resp.Cached {
		t.Errorf("no_cache request reported cached")
	}
	if got := s.evaluations.Value(); got != 2 {
		t.Errorf("evaluations = %d; want 2 (no_cache must recompute)", got)
	}
}

func TestAnalyzeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	mutate := func(f func(*AnalyzeRequest)) string {
		req := zooReq()
		f(&req)
		return marshal(t, req)
	}
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{"layer":`},
		{"unknown field", `{"layour":{}}`},
		{"unknown model", mutate(func(r *AnalyzeRequest) { r.Layer.Model = "LeNet" })},
		{"unknown layer", mutate(func(r *AnalyzeRequest) { r.Layer.Name = "CONV99" })},
		{"unknown dataflow", mutate(func(r *AnalyzeRequest) { r.Dataflow.Name = "Z-P" })},
		{"bad dsl", mutate(func(r *AnalyzeRequest) { r.Dataflow = DataflowSpec{DSL: "Frobnicate(3,3) K;"} })},
		{"unknown preset", mutate(func(r *AnalyzeRequest) { r.HW.Preset = "TPUv9" })},
		{"hw underspecified", mutate(func(r *AnalyzeRequest) { r.HW = HWSpec{} })},
		{"inline layer zero-sized", mutate(func(r *AnalyzeRequest) {
			r.Layer = LayerSpec{Name: "bad", K: -4, C: 16, Y: 8, X: 8, R: 3, S: 3}
		})},
		// Its MAC count overflows int64.
		{"inline layer counts overflow", mutate(func(r *AnalyzeRequest) {
			r.Layer = LayerSpec{Name: "huge", K: 4_000_000, C: 4_000_000, Y: 40_000, X: 40_000, R: 1, S: 1}
		})},
		// One JSON value per body: a valid request with data after it.
		{"trailing data", marshal(t, zooReq()) + "garbage"},
		// Resolve-time validation: a cluster wider than the PE array is
		// the model's typed ErrInvalid, surfaced through the pool.
		{"cluster exceeds pes", mutate(func(r *AnalyzeRequest) {
			r.Dataflow = DataflowSpec{DSL: "SpatialMap(1,1) K; Cluster(512, P); SpatialMap(1,1) C;"}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data := post(t, ts.URL+"/v1/analyze", tc.body)
			if code != http.StatusBadRequest {
				t.Errorf("status = %d; want 400: %s", code, data)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("error body missing: %s", data)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatalf("GET /v1/analyze: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d; want 405", resp.StatusCode)
	}
}

func TestBatchPreservesOrder(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})

	var batch BatchRequest
	for i := 0; i < 4; i++ {
		batch.Requests = append(batch.Requests, inlineReq(fmt.Sprintf("layer-%d", i), 8<<i))
	}
	bad := zooReq()
	bad.Layer.Model = "NoSuchNet"
	batch.Requests = append(batch.Requests, bad)

	code, data := post(t, ts.URL+"/v1/analyze/batch", marshal(t, batch))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, data)
	}
	var resp BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Results) != len(batch.Requests) {
		t.Fatalf("got %d results; want %d", len(resp.Results), len(batch.Requests))
	}
	for i := 0; i < 4; i++ {
		it := resp.Results[i]
		if it.Index != i {
			t.Errorf("result %d has index %d", i, it.Index)
		}
		if it.Error != "" || it.Result == nil {
			t.Errorf("result %d failed: %q", i, it.Error)
			continue
		}
		if want := fmt.Sprintf("layer-%d", i); it.Result.Layer != want {
			t.Errorf("result %d is layer %q; want %q (order not preserved)", i, it.Result.Layer, want)
		}
	}
	last := resp.Results[4]
	if last.Error == "" || last.Result != nil {
		t.Errorf("invalid item should fail item-level, got error=%q result=%v", last.Error, last.Result)
	}
}

// hwVariantReq is zooReq with one NoC knob changed: same layer,
// dataflow, and PE count — so the items share one hardware-independent
// profile — but a different priced result.
func hwVariantReq(bw float64) AnalyzeRequest {
	req := zooReq()
	req.HW.NoCs = []NoCSpec{{Kind: "bus", Bandwidth: bw}}
	return req
}

// TestBatchProfileGrouping checks the grouped batch path end to end:
// items sharing a (dataflow, layer, PE count) profile are priced
// together in one PriceBatch walk, land at their own indexes with
// per-variant results, warm the result cache under their own keys, and
// count one evaluation each.
func TestBatchProfileGrouping(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	bws := []float64{4, 8, 16, 64}
	var batch BatchRequest
	for _, bw := range bws {
		batch.Requests = append(batch.Requests, hwVariantReq(bw))
	}
	batch.Requests = append(batch.Requests, inlineReq("solo", 32)) // singleton group
	bad := zooReq()
	bad.Layer.Model = "NoSuchNet"
	batch.Requests = append(batch.Requests, bad) // fails resolution

	code, data := post(t, ts.URL+"/v1/analyze/batch", marshal(t, batch))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, data)
	}
	var resp BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Results) != len(batch.Requests) {
		t.Fatalf("got %d results; want %d", len(resp.Results), len(batch.Requests))
	}
	for i := 0; i < 5; i++ {
		it := resp.Results[i]
		if it.Index != i || it.Error != "" || it.Result == nil {
			t.Fatalf("item %d: index=%d error=%q result=%v", i, it.Index, it.Error, it.Result)
		}
		if it.Result.Cached {
			t.Errorf("item %d: first delivery marked cached", i)
		}
	}
	if last := resp.Results[5]; last.Error == "" || last.Result != nil {
		t.Errorf("unresolvable item should fail item-level: error=%q result=%v", last.Error, last.Result)
	}
	// A wider pipe must not be slower, and the variants must actually
	// differ — grouping must not collapse them onto one lane's result.
	for i := 1; i < len(bws); i++ {
		prev, cur := resp.Results[i-1].Result, resp.Results[i].Result
		if cur.Runtime > prev.Runtime {
			t.Errorf("runtime increased with bandwidth: bw=%g→%d, bw=%g→%d",
				bws[i-1], prev.Runtime, bws[i], cur.Runtime)
		}
	}
	if resp.Results[0].Result.Runtime == resp.Results[3].Result.Runtime {
		t.Error("4 vs 64 elem/cy produced identical runtime; lanes likely collapsed")
	}
	// Each grouped item must be bit-identical to an individually computed
	// analysis of the same request (NoCache forces a fresh compute).
	for i, bw := range bws {
		req := hwVariantReq(bw)
		req.NoCache = true
		code, single, body := analyze(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("individual analyze bw=%g: status %d: %s", bw, code, body)
		}
		got := *resp.Results[i].Result
		// Per-delivery fields differ by construction.
		single.Cached, got.Cached = false, false
		single.ComputeMicros, got.ComputeMicros = 0, 0
		if single != got {
			t.Errorf("item %d (bw=%g) diverges from individual analysis\nbatch:  %+v\nsingle: %+v",
				i, bw, got, single)
		}
	}
	// 4 grouped + 1 singleton evaluations for the batch, then 4 NoCache
	// singles above.
	if n := metricValue(t, ts.URL, "maestro_evaluations_total"); n != 9 {
		t.Errorf("evaluations = %d, want 9 (5 batch + 4 nocache singles)", n)
	}

	// Re-running the original batch must ride the result cache: grouped
	// items hit under their own canonical keys.
	code, data = post(t, ts.URL+"/v1/analyze/batch", marshal(t, batch))
	if code != http.StatusOK {
		t.Fatalf("second batch: status %d: %s", code, data)
	}
	var resp2 BatchResponse
	if err := json.Unmarshal(data, &resp2); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for i := 0; i < 5; i++ {
		if it := resp2.Results[i]; it.Result == nil || !it.Result.Cached {
			t.Errorf("second batch item %d not served from cache", i)
		}
	}
	if n := metricValue(t, ts.URL, "maestro_evaluations_total"); n != 9 {
		t.Errorf("evaluations after cached batch = %d, want still 9", n)
	}
}

// TestBatchGroupPartialCacheHit warms one member of a profile group
// individually, then sends the whole group: the warm member must arrive
// cached, the cold ones computed, with only the misses evaluated.
func TestBatchGroupPartialCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	warm := hwVariantReq(8)
	if code, _, body := analyze(t, ts.URL, warm); code != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", code, body)
	}
	var batch BatchRequest
	for _, bw := range []float64{4, 8, 16} {
		batch.Requests = append(batch.Requests, hwVariantReq(bw))
	}
	code, data := post(t, ts.URL+"/v1/analyze/batch", marshal(t, batch))
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, data)
	}
	var resp BatchResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for i, wantCached := range []bool{false, true, false} {
		it := resp.Results[i]
		if it.Error != "" || it.Result == nil {
			t.Fatalf("item %d failed: %q", i, it.Error)
		}
		if it.Result.Cached != wantCached {
			t.Errorf("item %d cached = %v, want %v", i, it.Result.Cached, wantCached)
		}
	}
	if n := metricValue(t, ts.URL, "maestro_evaluations_total"); n != 3 {
		t.Errorf("evaluations = %d, want 3 (1 warmup + 2 group misses)", n)
	}
}

func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxBatch: 2})

	if code, data := post(t, ts.URL+"/v1/analyze/batch", `{"requests":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d; want 400: %s", code, data)
	}
	var batch BatchRequest
	for i := 0; i < 3; i++ {
		batch.Requests = append(batch.Requests, zooReq())
	}
	if code, data := post(t, ts.URL+"/v1/analyze/batch", marshal(t, batch)); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d; want 400: %s", code, data)
	}
}

// blockWorkers occupies every worker of s with jobs that hold until the
// returned release func is called.
func blockWorkers(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	for i := 0; i < n; i++ {
		started := make(chan struct{})
		if err := s.pool.Submit(func() { close(started); <-ch }); err != nil {
			t.Fatalf("submit blocker %d: %v", i, err)
		}
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("blocker %d never started", i)
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := blockWorkers(t, s, 1)
	defer release()

	// Fill the single queue slot so the next submission fails fast.
	if err := s.pool.Submit(func() {}); err != nil {
		t.Fatalf("fill queue: %v", err)
	}

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(marshal(t, zooReq())))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d; want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After header")
	}
	if got := s.rejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d; want 1", got)
	}

	// Draining the queue restores service (retry while the no-op job
	// still occupies the single queue slot).
	release()
	code := 0
	var body []byte
	for i := 0; i < 50; i++ {
		code, _, body = analyze(t, ts.URL, zooReq())
		if code != http.StatusTooManyRequests {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code != http.StatusOK {
		t.Errorf("after drain: status %d: %s", code, body)
	}
}

func TestTimeout504(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	release := blockWorkers(t, s, 1)
	defer release()

	req := zooReq()
	req.TimeoutMs = 40
	code, _, data := analyze(t, ts.URL, req)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d; want 504: %s", code, data)
	}
	if got := s.timeouts.Value(); got != 1 {
		t.Errorf("timeouts counter = %d; want 1", got)
	}
}

func TestClosedPool503(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()

	code, data := post(t, ts.URL+"/v1/analyze", marshal(t, zooReq()))
	if code != http.StatusServiceUnavailable {
		t.Errorf("status = %d; want 503: %s", code, data)
	}
}

func TestHealthzModelsMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var models ModelsResponse
	if err := json.Unmarshal(data, &models); err != nil {
		t.Fatalf("unmarshal models: %v", err)
	}
	if len(models.Models) < 8 {
		t.Errorf("zoo lists %d models; want >= 8", len(models.Models))
	}
	found := false
	for _, m := range models.Models {
		if m.Name == "VGG16" {
			found = len(m.Layers) == 16 && m.MACs > 0
		}
	}
	if !found {
		t.Errorf("VGG16 missing or malformed in %s", data)
	}
	if len(models.Dataflows) != 5 || len(models.Presets) != 3 {
		t.Errorf("dataflows=%v presets=%v", models.Dataflows, models.Presets)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, fam := range []string{
		"maestro_requests_total", "maestro_evaluations_total",
		"maestro_cache_hits_total", "maestro_queue_depth",
		"maestro_request_seconds_bucket", "maestro_request_seconds_count",
	} {
		if !strings.Contains(string(text), fam) {
			t.Errorf("metrics output missing %s", fam)
		}
	}
}

func TestDSEEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	req := DSERequest{
		Layer:    LayerSpec{Name: "tiny", K: 32, C: 16, Y: 18, X: 18, R: 3, S: 3},
		Template: "KC-P",
		P1:       []int{8},
		P2:       []int{4},
		PEs:      []int{64},
		BWs:      []float64{16},
		L1Grid:   []int64{1 << 12},
		L2Grid:   []int64{1 << 20},
	}
	code, data := post(t, ts.URL+"/v1/dse", marshal(t, req))
	if code != http.StatusOK {
		t.Fatalf("dse: status %d: %s", code, data)
	}
	var resp DSEResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Raw != 1 || resp.Cached {
		t.Errorf("raw=%d cached=%v; want 1 uncached design", resp.Raw, resp.Cached)
	}

	code, data = post(t, ts.URL+"/v1/dse", marshal(t, req))
	if code != http.StatusOK {
		t.Fatalf("dse repeat: status %d: %s", code, data)
	}
	var again DSEResponse
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatalf("unmarshal repeat: %v", err)
	}
	if !again.Cached || again.Key != resp.Key {
		t.Errorf("repeat sweep cached=%v key match=%v", again.Cached, again.Key == resp.Key)
	}

	// A sweep over the raw-design cap is refused up front.
	wide := make([]int, 64)
	for i := range wide {
		wide[i] = i + 1
	}
	huge := req
	huge.P1, huge.P2, huge.PEs = wide, wide, wide
	huge.BWs = make([]float64, 64)
	for i := range huge.BWs {
		huge.BWs[i] = float64(i + 1)
	}
	if code, data := post(t, ts.URL+"/v1/dse", marshal(t, huge)); code != http.StatusBadRequest {
		t.Errorf("oversized sweep: status %d; want 400: %s", code, data)
	}
	if code, data := post(t, ts.URL+"/v1/dse", `{"template":"BAD-P"}`); code != http.StatusBadRequest {
		t.Errorf("unknown template: status %d; want 400: %s", code, data)
	}
}

// TestConcurrentCacheHammer drives identical and distinct requests from
// many goroutines; the singleflight cache must evaluate each distinct
// request exactly once. Run with -race.
func TestConcurrentCacheHammer(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 256})

	reqs := make([]string, 4)
	for i := range reqs {
		reqs[i] = marshal(t, inlineReq(fmt.Sprintf("hammer-%d", i), 8<<i))
	}
	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
					strings.NewReader(reqs[(g+i)%len(reqs)]))
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d iter %d: status %d: %s", g, i, resp.StatusCode, data)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	distinct := int64(len(reqs))
	if got := s.cache.Misses(); got != distinct {
		t.Errorf("misses = %d; want %d (one per distinct request)", got, distinct)
	}
	if got := s.evaluations.Value(); got != distinct {
		t.Errorf("evaluations = %d; want %d", got, distinct)
	}
	total := int64(goroutines * iters)
	served := s.cache.Hits() + s.cache.Coalesced() + s.cache.Misses()
	if served != total {
		t.Errorf("hits+coalesced+misses = %d; want %d", served, total)
	}
}
