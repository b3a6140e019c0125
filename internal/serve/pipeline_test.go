package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// parityItem is one item's outcome in a 200 response: a single
// endpoint answers one item, a batch one per request.
type parityItem struct {
	cached bool
	err    string
}

// parityEndpoint is one row of TestEndpointPipelineParity: an endpoint
// that computes, how to ask it, and how to read a 200 answer.
type parityEndpoint struct {
	name  string
	path  string
	body  func(timeoutMs int, noCache bool) any
	items func(t *testing.T, body []byte) []parityItem
}

func decodeInto[T any](t *testing.T, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	return v
}

func parityEndpoints() []parityEndpoint {
	return []parityEndpoint{
		{
			name: "analyze", path: "/v1/analyze",
			body: func(ms int, noCache bool) any {
				req := inlineReq("parity", 32)
				req.TimeoutMs, req.NoCache = ms, noCache
				return req
			},
			items: func(t *testing.T, b []byte) []parityItem {
				return []parityItem{{cached: decodeInto[AnalyzeResponse](t, b).Cached}}
			},
		},
		{
			// Two items share a profile (one group, one PriceBatch walk),
			// the third is served alone.
			name: "batch", path: "/v1/analyze/batch",
			body: func(ms int, noCache bool) any {
				req := BatchRequest{TimeoutMs: ms}
				for _, r := range []AnalyzeRequest{hwVariantReq(4), hwVariantReq(8), inlineReq("parity-solo", 32)} {
					r.NoCache = noCache
					req.Requests = append(req.Requests, r)
				}
				return req
			},
			items: func(t *testing.T, b []byte) []parityItem {
				var out []parityItem
				for _, it := range decodeInto[BatchResponse](t, b).Results {
					pi := parityItem{err: it.Error}
					if it.Result != nil {
						pi.cached = it.Result.Cached
					}
					out = append(out, pi)
				}
				return out
			},
		},
		{
			name: "dse", path: "/v1/dse",
			body: func(ms int, noCache bool) any {
				return DSERequest{
					Layer:    LayerSpec{Name: "parity", K: 32, C: 16, Y: 18, X: 18, R: 3, S: 3},
					Template: "KC-P",
					P1:       []int{8}, P2: []int{4}, PEs: []int{64}, BWs: []float64{16},
					L1Grid: []int64{1 << 12}, L2Grid: []int64{1 << 20},
					TimeoutMs: ms, NoCache: noCache,
				}
			},
			items: func(t *testing.T, b []byte) []parityItem {
				return []parityItem{{cached: decodeInto[DSEResponse](t, b).Cached}}
			},
		},
		{
			name: "fusion", path: "/v1/fusion",
			body: func(ms int, noCache bool) any {
				req := fusionReq()
				req.L2Grid = []int64{0}
				req.TimeoutMs, req.NoCache = ms, noCache
				return req
			},
			items: func(t *testing.T, b []byte) []parityItem {
				return []parityItem{{cached: decodeInto[FusionResponse](t, b).Cached}}
			},
		},
	}
}

// callParity posts one request and returns the status, the headers, and
// the body.
func callParity(t *testing.T, url string, ep parityEndpoint, timeoutMs int, noCache bool) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url+ep.path, "application/json",
		strings.NewReader(marshal(t, ep.body(timeoutMs, noCache))))
	if err != nil {
		t.Fatalf("POST %s: %v", ep.path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestEndpointPipelineParity holds every computing endpoint to the one
// serve pipeline: a warm request is answered from the cache even when
// the only worker is busy, a deadline shorter than the expected compute
// is shed before queueing, a full queue is refused with a hint, and
// no_cache recomputes. A batch answers 200 and carries each item's
// outcome, except when every item is refused by the queue.
func TestEndpointPipelineParity(t *testing.T) {
	for _, ep := range parityEndpoints() {
		t.Run(ep.name+"/warm_hit_skips_busy_pool", func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
			if code, _, body := callParity(t, ts.URL, ep, 0, false); code != http.StatusOK {
				t.Fatalf("warmup: status %d: %s", code, body)
			}
			release := blockWorkers(t, s, 1)
			defer release()
			computes := s.stageSeconds.With("compute").Count()
			code, _, body := callParity(t, ts.URL, ep, 200, false)
			if code != http.StatusOK {
				t.Fatalf("warm request with a busy pool: status %d, want 200: %s", code, body)
			}
			for i, it := range ep.items(t, body) {
				if it.err != "" || !it.cached {
					t.Errorf("item %d: cached=%v error=%q, want a cache hit", i, it.cached, it.err)
				}
			}
			if got := s.stageSeconds.With("compute").Count(); got != computes {
				t.Errorf("a warm request computed %d times", got-computes)
			}
		})

		t.Run(ep.name+"/short_deadline_is_shed", func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
			feedSvcTime(&s.svcTime, 50*time.Millisecond, 64)
			code, hdr, body := callParity(t, ts.URL, ep, 5, false)
			if ep.name == "batch" {
				if code != http.StatusOK {
					t.Fatalf("status %d, want 200 with item errors: %s", code, body)
				}
				for i, it := range ep.items(t, body) {
					if !strings.Contains(it.err, "shed") {
						t.Errorf("item %d: error %q, want a shed error", i, it.err)
					}
				}
			} else {
				if code != http.StatusServiceUnavailable {
					t.Fatalf("status %d, want 503: %s", code, body)
				}
				if hdr.Get("Retry-After") == "" {
					t.Error("shed 503 lacks Retry-After")
				}
			}
			if s.shed.Value() == 0 {
				t.Error("maestro_shed_total did not move")
			}
		})

		t.Run(ep.name+"/full_queue_is_refused", func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
			release := blockWorkers(t, s, 1)
			defer release()
			if err := s.pool.Submit(func() {}); err != nil {
				t.Fatalf("fill queue: %v", err)
			}
			code, hdr, body := callParity(t, ts.URL, ep, 0, false)
			if code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429: %s", code, body)
			}
			if hdr.Get("Retry-After") == "" {
				t.Error("429 lacks Retry-After")
			}
		})

		t.Run(ep.name+"/no_cache_recomputes", func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
			if code, _, body := callParity(t, ts.URL, ep, 0, false); code != http.StatusOK {
				t.Fatalf("warmup: status %d: %s", code, body)
			}
			computes, misses, entries := s.stageSeconds.With("compute").Count(), s.cache.Misses(), s.cache.Len()
			code, _, body := callParity(t, ts.URL, ep, 0, true)
			if code != http.StatusOK {
				t.Fatalf("no_cache: status %d: %s", code, body)
			}
			for i, it := range ep.items(t, body) {
				if it.err != "" || it.cached {
					t.Errorf("item %d: cached=%v error=%q, want a fresh compute", i, it.cached, it.err)
				}
			}
			if s.stageSeconds.With("compute").Count() == computes {
				t.Error("no_cache request did not compute")
			}
			if s.cache.Misses() != misses || s.cache.Len() != entries {
				t.Errorf("no_cache touched the result cache: misses %d→%d, entries %d→%d",
					misses, s.cache.Misses(), entries, s.cache.Len())
			}
		})
	}
}
