package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestIDEchoAndGenerate(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// A client-supplied ID is echoed back.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-42" {
		t.Errorf("echoed request id = %q, want client-id-42", got)
	}

	// Absent (or hostile) IDs are replaced with a generated one.
	for _, supplied := range []string{"", `bad"quoted\id`} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if supplied != "" {
			req.Header.Set("X-Request-ID", supplied)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if len(got) != 16 || strings.ContainsAny(got, "\"\n\r\\|") {
			t.Errorf("generated request id = %q, want 16 hex chars", got)
		}
	}

	// Error bodies carry the request ID for cross-referencing logs.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader("{not json"))
	req.Header.Set("X-Request-ID", "err-req-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST bad body: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if body["request_id"] != "err-req-7" {
		t.Errorf("error body request_id = %q, want err-req-7", body["request_id"])
	}
}

// syncBuffer lets the slog handler race-safely share a buffer with the
// test goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestAccessLogCarriesRequestID(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := New(Options{Workers: 1, Logger: logger})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models", nil)
	req.Header.Set("X-Request-ID", "log-req-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /v1/models: %v", err)
	}
	resp.Body.Close()

	// The middleware logs after the handler returns, which can be after
	// the client has the response; Close waits for the request to finish.
	ts.Close()
	out := buf.String()
	if !strings.Contains(out, "http_request") ||
		!strings.Contains(out, "request_id=log-req-9") ||
		!strings.Contains(out, "path=/v1/models") {
		t.Errorf("access log missing request line or request id:\n%s", out)
	}
}

// chromeTrace mirrors the exported trace_event JSON shape.
type chromeTrace struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TID   uint64         `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestDebugTraceCapturesDSERequest is the acceptance check: a /v1/dse
// request served while a /debug/trace window is open must export a
// Chrome trace whose queue, cache, profile, and price spans all carry
// the request's ID.
func TestDebugTraceCapturesDSERequest(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, DebugTrace: true})

	type captured struct {
		code int
		body []byte
		err  error
	}
	ch := make(chan captured, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/debug/trace?sec=1")
		if err != nil {
			ch <- captured{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode == http.StatusOK &&
			resp.Header.Get("Content-Type") != "application/json" {
			err = fmt.Errorf("content-type %q", resp.Header.Get("Content-Type"))
		}
		ch <- captured{code: resp.StatusCode, body: body, err: err}
	}()

	// Wait for the capture window to open before sending traffic.
	deadline := time.Now().Add(5 * time.Second)
	for s.capture.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("capture window never opened")
		}
		time.Sleep(time.Millisecond)
	}

	// A unique layer name guarantees a miss in the process-global
	// profile cache, so the trace contains the full profile+price path.
	layer := fmt.Sprintf("trace-%d", time.Now().UnixNano())
	req := DSERequest{
		Layer:    LayerSpec{Name: layer, K: 32, C: 16, Y: 18, X: 18, R: 3, S: 3},
		Template: "KC-P",
		P1:       []int{8},
		P2:       []int{4},
		PEs:      []int{64},
		BWs:      []float64{16},
		L1Grid:   []int64{1 << 12},
		L2Grid:   []int64{1 << 20},
	}
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/dse",
		strings.NewReader(marshal(t, req)))
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", "req-test-123")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/dse: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dse: status %d: %s", resp.StatusCode, data)
	}

	got := <-ch
	if got.err != nil {
		t.Fatalf("debug/trace: %v", got.err)
	}
	if got.code != http.StatusOK {
		t.Fatalf("debug/trace: status %d: %s", got.code, got.body)
	}
	var trace chromeTrace
	if err := json.Unmarshal(got.body, &trace); err != nil {
		t.Fatalf("unmarshal trace: %v\n%s", err, got.body)
	}

	// Every span of the request — through the pool, the result cache,
	// and the DSE worker fan-out — must carry the client's request ID.
	spans := map[string]int{}
	tracks := map[uint64]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if id, _ := ev.Args["request_id"].(string); id == "req-test-123" {
			spans[ev.Name]++
			tracks[ev.TID] = true
		}
	}
	for _, want := range []string{
		"http.request", "serve.queue", "serve.cache", "serve.compute",
		"dse.explore", "core.profile", "core.price_batch",
	} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q span with request_id=req-test-123; got %v", want, spans)
		}
	}
	if len(tracks) != 1 {
		t.Errorf("request spans spread over %d tracks, want 1 (tid = root span)", len(tracks))
	}

	// The window has closed: the capture slot must be free again.
	if s.capture.Load() != nil {
		t.Error("capture recorder still attached after window closed")
	}
}

// TestBatchCacheHitDuringCaptureRace regression-tests the data race
// where concurrent batch items recorded result_cache.hit directly on
// the shared request root span: with a warm cache and an open capture
// window, a batch of identical requests must be clean under -race.
func TestBatchCacheHitDuringCaptureRace(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, DebugTrace: true})

	req := AnalyzeRequest{
		Layer:    LayerSpec{Name: "race-hit", K: 32, C: 16, Y: 16, X: 16, R: 3, S: 3},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
	}
	// Warm the result cache so every batch item takes the hit fast path.
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json",
		strings.NewReader(marshal(t, req)))
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	resp.Body.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/debug/trace?sec=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.capture.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("capture window never opened")
		}
		time.Sleep(time.Millisecond)
	}

	batch := BatchRequest{Requests: make([]AnalyzeRequest, 32)}
	for i := range batch.Requests {
		batch.Requests[i] = req
	}
	resp, err = http.Post(ts.URL+"/v1/analyze/batch", "application/json",
		strings.NewReader(marshal(t, batch)))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal batch: %v", err)
	}
	for _, it := range br.Results {
		if it.Error != "" {
			t.Errorf("item %d: %s", it.Index, it.Error)
		}
	}
	<-done
}

func TestDebugTraceDisabledByDefault(t *testing.T) {
	// The capture endpoint exposes other tenants' span metadata, so the
	// API handler only mounts it when Options.DebugTrace opts in; it is
	// otherwise reachable only via DebugTraceHandler (the -pprof mux).
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/trace?sec=1")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("default /debug/trace: status %d, want 404", resp.StatusCode)
	}
}

func TestDebugTraceValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, DebugTrace: true})

	if resp, err := http.Get(ts.URL + "/debug/trace?sec=nope"); err != nil {
		t.Fatalf("GET: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad sec: status %d, want 400", resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/debug/trace", "", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}

	// Only one capture window at a time: a second concurrent request is
	// answered 409.
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/debug/trace?sec=1")
		if err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.capture.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("capture window never opened")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/debug/trace?sec=1")
	if err != nil {
		t.Fatalf("second capture: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("concurrent capture: status %d, want 409", resp.StatusCode)
	}
	<-done
}

// TestEndpointLabels checks the latency label of every route Handler
// mounts, with the optional routes on: each route has a label of its
// own, only paths Handler does not mount fall into "other", and a
// request on each route is observed under its label.
func TestEndpointLabels(t *testing.T) {
	s, ts := newTestServer(t, Options{DebugTrace: true})
	owner := map[string]string{}
	for _, rt := range s.routes() {
		label := endpointOf(rt.path)
		if label == "other" {
			t.Errorf("route %s has no label of its own", rt.path)
		}
		if prev, dup := owner[label]; dup {
			t.Errorf("routes %s and %s share the label %q", prev, rt.path, label)
		}
		owner[label] = rt.path
		// POST answers at once on every route (405 or 400 where the
		// route wants GET or a body); GET /debug/trace would hold a
		// capture window open.
		resp, err := http.Post(ts.URL+rt.path, "application/json", nil)
		if err != nil {
			t.Fatalf("POST %s: %v", rt.path, err)
		}
		// Read to the end: a body too big to buffer (/metrics) goes out
		// chunked while the handler runs, and only its last chunk waits
		// for instrument to record the request.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only waiting for the end
		resp.Body.Close()
	}
	for _, path := range []string{"/", "/v1", "/v1/", "/v1/fusion/", "/v1/nope", "/debug"} {
		if got := endpointOf(path); got != "other" {
			t.Errorf("unmounted path %s labelled %q, want other", path, got)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for label, path := range owner {
		if want := `maestro_endpoint_seconds_count{endpoint="` + label + `"}`; !strings.Contains(string(body), want) {
			t.Errorf("request on %s not observed: no %s", path, want)
		}
	}
}
