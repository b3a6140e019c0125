package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

func okBody(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(&serve.AnalyzeResponse{Layer: "L", Dataflow: "KC-P", Runtime: 42})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func analyzeReq() serve.AnalyzeRequest {
	return serve.AnalyzeRequest{
		Layer:    serve.LayerSpec{Op: "CONV2D", K: 4, C: 3, Y: 8, X: 8, R: 3, S: 3},
		Dataflow: serve.DataflowSpec{Name: "KC-P"},
		HW:       serve.HWSpec{Preset: "Accel256"},
	}
}

func mustClient(t *testing.T, opts Options) *Client {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fastOpts keeps retry delays test-sized.
func fastOpts(url string) Options {
	return Options{
		BaseURL:     url,
		MaxAttempts: 4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        1,
	}
}

func TestRetryThenSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Write(okBody(t))
	}))
	defer ts.Close()

	c := mustClient(t, fastOpts(ts.URL))
	resp, err := c.Analyze(context.Background(), analyzeReq())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if resp.Runtime != 42 {
		t.Fatalf("runtime = %d, want 42", resp.Runtime)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

func TestTerminalClientErrorNoRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("X-Request-ID", "rid-1")
		http.Error(w, `{"error":"bad request: no such model"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c := mustClient(t, fastOpts(ts.URL))
	_, err := c.Analyze(context.Background(), analyzeReq())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %v", err)
	}
	if apiErr.Status != http.StatusBadRequest || apiErr.RequestID != "rid-1" {
		t.Fatalf("unexpected APIError: %+v", apiErr)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 was retried: %d calls", got)
	}
}

func TestExhaustionWrapsLastError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"still down"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	c := mustClient(t, fastOpts(ts.URL))
	_, err := c.Analyze(context.Background(), analyzeReq())
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("exhaustion does not wrap the last APIError: %v", err)
	}
}

// TestRetryAfterHonored asserts the client waits at least the server's
// Retry-After hint before the next attempt.
func TestRetryAfterHonored(t *testing.T) {
	var mu sync.Mutex
	var times []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		times = append(times, time.Now())
		n := len(times)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"backpressure"}`, http.StatusTooManyRequests)
			return
		}
		w.Write(okBody(t))
	}))
	defer ts.Close()

	c := mustClient(t, fastOpts(ts.URL))
	if _, err := c.Analyze(context.Background(), analyzeReq()); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != 2 {
		t.Fatalf("saw %d attempts, want 2", len(times))
	}
	if gap := times[1].Sub(times[0]); gap < time.Second {
		t.Fatalf("second attempt after %v, want >= 1s (Retry-After)", gap)
	}
}

func TestDeadlinePropagatedIntoTimeoutMs(t *testing.T) {
	var got atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.AnalyzeRequest
		json.NewDecoder(r.Body).Decode(&req)
		got.Store(int64(req.TimeoutMs))
		w.Write(okBody(t))
	}))
	defer ts.Close()

	c := mustClient(t, fastOpts(ts.URL))
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := c.Analyze(ctx, analyzeReq()); err != nil {
		t.Fatal(err)
	}
	ms := got.Load()
	if ms <= 0 || ms > 500 {
		t.Fatalf("timeout_ms = %d, want in (0, 500]", ms)
	}

	// An explicit timeout_ms is left alone.
	req := analyzeReq()
	req.TimeoutMs = 1234
	if _, err := c.Analyze(ctx, req); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 1234 {
		t.Fatalf("explicit timeout_ms overwritten: %d", got.Load())
	}
}

func TestContextCancelIsTerminal(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)

	c := mustClient(t, fastOpts(ts.URL))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Analyze(ctx, analyzeReq())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestBreakerOpensAndRecovers drives the full closed → open →
// half-open → closed cycle against a server that fails hard and then
// heals.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if failing.Load() {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		w.Write(okBody(t))
	}))
	defer ts.Close()

	var mu sync.Mutex
	var transitions []string
	opts := fastOpts(ts.URL)
	opts.MaxAttempts = 1 // isolate breaker behavior from retry
	opts.Breaker = BreakerOptions{
		FailureThreshold: 3,
		Cooldown:         50 * time.Millisecond,
		OnStateChange: func(host string, from, to BreakerState) {
			mu.Lock()
			transitions = append(transitions, from.String()+">"+to.String())
			mu.Unlock()
		},
	}
	c := mustClient(t, opts)
	ctx := context.Background()

	// Three failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Analyze(ctx, analyzeReq()); err == nil {
			t.Fatal("expected failure")
		}
	}
	if st := c.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	// While open, calls fail fast without touching the server.
	before := calls.Load()
	_, err := c.Analyze(ctx, analyzeReq())
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker let a call through")
	}
	if st := c.Stats(); st.BreakerRejected == 0 {
		t.Fatal("BreakerRejected not counted")
	}

	// After the cooldown the half-open probe fails and re-opens.
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Analyze(ctx, analyzeReq()); err == nil {
		t.Fatal("expected probe failure")
	}
	if st := c.BreakerState(); st != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", st)
	}

	// Server heals; next probe closes the breaker.
	failing.Store(false)
	time.Sleep(60 * time.Millisecond)
	if _, err := c.Analyze(ctx, analyzeReq()); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if st := c.BreakerState(); st != BreakerClosed {
		t.Fatalf("state after heal = %v, want closed", st)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{
		"closed>open",
		"open>half-open", "half-open>open",
		"open>half-open", "half-open>closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

// TestBreakerHalfOpenSingleProbe: concurrent calls during half-open
// admit exactly one probe; the rest are rejected locally.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	release := make(chan struct{})
	var inHandler atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inHandler.Add(1)
		<-release
		w.Write(okBody(t))
	}))
	defer ts.Close()

	opts := fastOpts(ts.URL)
	opts.MaxAttempts = 1
	opts.Breaker = BreakerOptions{FailureThreshold: 1, Cooldown: 10 * time.Millisecond}
	c := mustClient(t, opts)

	// Trip the breaker directly, wait out the cooldown, then race two
	// calls through the half-open gate.
	b := c.br
	b.Failure()
	if c.BreakerState() != BreakerOpen {
		t.Fatal("breaker not open")
	}
	time.Sleep(15 * time.Millisecond)

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Analyze(context.Background(), analyzeReq())
			done <- err
		}()
	}
	// One call reaches the handler and blocks; the other must be
	// rejected by the half-open gate.
	deadline := time.After(2 * time.Second)
	for inHandler.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("no probe reached the server")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	err1 := <-done // the rejected one finishes first
	if !errors.Is(err1, ErrCircuitOpen) {
		t.Fatalf("concurrent probe not rejected: %v", err1)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("probe call: %v", err)
	}
	if got := inHandler.Load(); got != 1 {
		t.Fatalf("%d probes reached the server, want 1", got)
	}
	if c.BreakerState() != BreakerClosed {
		t.Fatal("breaker did not close after successful probe")
	}
}

// TestBreakerStateReadsHalfOpenAfterCooldown: once the cooldown has
// elapsed an open breaker reads half-open, so a caller routing on
// BreakerState tries the host again; reading it makes no transition,
// and Allow still admits exactly one trial.
func TestBreakerStateReadsHalfOpenAfterCooldown(t *testing.T) {
	var transitions atomic.Int64
	b := newBreaker("h", BreakerOptions{
		FailureThreshold: 1,
		Cooldown:         10 * time.Millisecond,
		OnStateChange:    func(string, BreakerState, BreakerState) { transitions.Add(1) },
	})
	b.Failure()
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}
	time.Sleep(15 * time.Millisecond)
	if st := b.State(); st != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	if got := transitions.Load(); got != 1 {
		t.Fatalf("State made a transition: %d, want 1 (closed>open)", got)
	}
	if !b.Allow() || b.Allow() {
		t.Fatal("half-open breaker must admit exactly one trial")
	}
	b.Success()
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state after a successful trial = %v, want closed", st)
	}
}

func TestBackoffHonorsHintAndCap(t *testing.T) {
	bo := newBackoff(10*time.Millisecond, 80*time.Millisecond, 7)
	for retry := 0; retry < 10; retry++ {
		d := bo.delay(retry, 0)
		if d < time.Millisecond || d > 80*time.Millisecond {
			t.Fatalf("retry %d: delay %v out of [1ms, 80ms]", retry, d)
		}
	}
	if d := bo.delay(0, 300*time.Millisecond); d < 300*time.Millisecond {
		t.Fatalf("hint not honored: %v", d)
	}
}

func TestRetryAfterParse(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	if d := retryAfterHint(mk("")); d != 0 {
		t.Fatalf("empty = %v", d)
	}
	if d := retryAfterHint(mk("2")); d != 2*time.Second {
		t.Fatalf("seconds = %v", d)
	}
	if d := retryAfterHint(mk("-5")); d != 0 {
		t.Fatalf("negative = %v", d)
	}
	if d := retryAfterHint(mk("86400")); d != maxRetryAfter {
		t.Fatalf("cap = %v", d)
	}
	date := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	if d := retryAfterHint(mk(date)); d <= 0 || d > 3*time.Second {
		t.Fatalf("http-date = %v", d)
	}
	if d := retryAfterHint(mk("garbage")); d != 0 {
		t.Fatalf("garbage = %v", d)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty BaseURL accepted")
	}
	if _, err := New(Options{BaseURL: "ftp://x"}); err == nil {
		t.Fatal("ftp BaseURL accepted")
	}
	if _, err := New(Options{BaseURL: "http://127.0.0.1:0"}); err != nil {
		t.Fatalf("valid BaseURL rejected: %v", err)
	}
}

// TestStatsBreakersPerHost is the coordinator's regression test: a
// tripped breaker must be visible as typed state through BreakerState()
// and as the ErrCircuitOpen sentinel through every wrapping layer
// (including the retry-exhaustion wrap), so callers never string-match
// to tell a dead node from a transient error.
func TestStatsBreakersPerHost(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	opts := fastOpts(ts.URL)
	opts.MaxAttempts = 1
	opts.Breaker = BreakerOptions{FailureThreshold: 1, Cooldown: time.Minute}
	c := mustClient(t, opts)
	ctx := context.Background()

	// Before any call the breaker is closed.
	if st := c.BreakerState(); st != BreakerClosed {
		t.Fatalf("pre-call breaker = %v, want closed", st)
	}

	// One failure trips the threshold-1 breaker.
	if _, err := c.Analyze(ctx, analyzeReq()); err == nil {
		t.Fatal("expected server failure")
	}
	if st := c.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker = %v, want open", st)
	}

	// The fast-fail error is the sentinel, not a string.
	_, err := c.Analyze(ctx, analyzeReq())
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("fast-fail error = %v, want ErrCircuitOpen", err)
	}

	// With retries enabled, the sentinel still surfaces through the
	// ErrExhausted wrap after every attempt is breaker-rejected.
	opts.MaxAttempts = 3
	c2 := mustClient(t, opts)
	if _, err := c2.Analyze(ctx, analyzeReq()); err == nil {
		t.Fatal("expected failure to trip c2's breaker")
	}
	_, err = c2.Analyze(ctx, analyzeReq())
	if !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, ErrExhausted) {
		t.Fatalf("exhausted error = %v, want ErrExhausted wrapping ErrCircuitOpen", err)
	}
}

// TestProbeBypassesRetryAndBreaker pins the probe contract: Status is
// a single exchange that neither retries an unhealthy answer nor feeds
// the circuit breaker guarding real traffic — a caller asking "are you
// down?" must not push the breaker toward "down".
func TestProbeBypassesRetryAndBreaker(t *testing.T) {
	var calls atomic.Int64
	var draining, failing atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if r.URL.Path != "/v1/status" {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		if failing.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(serve.StatusResponse{Node: "n0", Draining: draining.Load()})
	}))
	defer ts.Close()

	opts := fastOpts(ts.URL)
	opts.Breaker = BreakerOptions{FailureThreshold: 1, Cooldown: time.Minute}
	c := mustClient(t, opts)

	st, err := c.Status(context.Background())
	if err != nil || st.Node != "n0" || st.Draining {
		t.Fatalf("Status = %+v, %v", st, err)
	}
	draining.Store(true)
	if st, err := c.Status(context.Background()); err != nil || !st.Draining {
		t.Fatalf("draining Status = %+v, %v", st, err)
	}

	// An unhealthy answer comes back as an *APIError, in exactly one
	// exchange, and the breaker stays closed.
	failing.Store(true)
	before := calls.Load()
	_, err = c.Status(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("failing Status error = %v, want a 503 *APIError", err)
	}
	if got := calls.Load() - before; got != 1 {
		t.Fatalf("Status made %d exchanges, want exactly 1 (no retries)", got)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Status(context.Background()); err == nil {
			t.Fatal("failing Status returned no error")
		}
	}
	if bs := c.BreakerState(); bs != BreakerClosed {
		t.Fatalf("breaker = %v after unhealthy probes, want closed", bs)
	}

	// A dead listener is a transport error, still breaker-neutral.
	ts.Close()
	if _, err := c.Status(context.Background()); err == nil {
		t.Fatal("Status against a dead listener returned no error")
	}
	if bs := c.BreakerState(); bs != BreakerClosed {
		t.Fatalf("breaker = %v after failed probe, want closed", bs)
	}
}
