// Package client is the resilient HTTP client for the maestro-serve
// analysis service: stdlib-only, with jittered exponential retry that
// honors Retry-After hints, a circuit breaker that fails fast against a
// failing node and re-admits it with one trial call per cooldown, and
// context-deadline propagation into the service's timeout_ms field so
// server-side queue-deadline shedding sees the real budget.
//
// Mapper and DSE loops hammer the cost-model service with thousands of
// speculative queries; this client is the discipline layer between
// them and a server that answers 429 under backpressure, 503 when
// shedding, and — under chaos testing — arbitrary injected faults.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// requestIDKey carries a caller-chosen X-Request-ID through ctx.
type requestIDKey struct{}

// WithRequestID returns a ctx whose calls send id as the X-Request-ID
// header, so a coordinator can stamp one sweep ID across every request
// it fans out and grep all nodes' access logs by it. The server
// sanitizes and echoes the ID; an empty id leaves generation to the
// server as before.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// ErrExhausted reports that every retry attempt failed; the final
// attempt's error is wrapped alongside it.
var ErrExhausted = errors.New("client: retry attempts exhausted")

// APIError is a terminal, non-retryable service answer (or the last
// retryable one once the budget is exhausted).
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error body, when it sent one.
	Message string
	// RequestID is the X-Request-ID of the failing exchange.
	RequestID string
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.Status)
	}
	if e.RequestID != "" {
		return fmt.Sprintf("client: server returned %d: %s (request %s)", e.Status, msg, e.RequestID)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Status, msg)
}

// Options configures a Client. Zero values take the documented
// defaults.
type Options struct {
	// BaseURL locates the service, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (default: a plain
	// &http.Client{}; per-call contexts bound each exchange).
	HTTPClient *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 4; 1 disables retry).
	MaxAttempts int
	// BaseBackoff is the first retry's jitter ceiling (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Seed makes the jitter sequence reproducible; 0 seeds randomly.
	Seed int64
	// Breaker configures the client's circuit breaker.
	Breaker BreakerOptions
}

// userAgent is the User-Agent header every exchange sends.
const userAgent = "maestro-client/1"

func (o Options) withDefaults() Options {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 4
	}
	return o
}

// Stats counts client-side resilience events; read them with Stats().
type Stats struct {
	// Attempts is the number of HTTP exchanges actually launched.
	Attempts int64
	// Retries is the number of re-attempts after a retryable failure.
	Retries int64
	// BreakerRejected is the number of attempts refused locally by an
	// open circuit breaker.
	BreakerRejected int64
}

// Client is a resilient caller of the analysis service. Safe for
// concurrent use.
type Client struct {
	opts Options
	base *url.URL
	http *http.Client
	bo   *backoff
	br   *breaker

	attempts        atomic.Int64
	retries         atomic.Int64
	breakerRejected atomic.Int64
}

// New builds a Client for the service at opts.BaseURL.
func New(opts Options) (*Client, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("client: Options.BaseURL is required")
	}
	u, err := url.Parse(opts.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad BaseURL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: BaseURL %q must be http or https", opts.BaseURL)
	}
	opts = opts.withDefaults()
	return &Client{
		opts: opts,
		base: u,
		http: opts.HTTPClient,
		bo:   newBackoff(opts.BaseBackoff, opts.MaxBackoff, opts.Seed),
		br:   newBreaker(u.Host, opts.Breaker),
	}, nil
}

// Stats returns a snapshot of the resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		BreakerRejected: c.breakerRejected.Load(),
	}
}

// BreakerState reports the circuit breaker position (closed when no
// call has run yet). An open breaker whose cooldown has elapsed reads
// half-open: the next call is admitted as a trial. Coordinators use it,
// with the ErrCircuitOpen sentinel, to tell a failing node from
// transient errors without string-matching.
func (c *Client) BreakerState() BreakerState { return c.br.State() }

// CloseIdleConnections releases the transport's idle keep-alive
// connections (the soak harness calls it before checking FD baselines).
func (c *Client) CloseIdleConnections() { c.http.CloseIdleConnections() }

// Analyze evaluates one layer + dataflow + hardware configuration.
// When the request carries no timeout_ms and ctx has a deadline, the
// remaining budget is propagated so the server's shedding sees it.
func (c *Client) Analyze(ctx context.Context, req serve.AnalyzeRequest) (*serve.AnalyzeResponse, error) {
	var out serve.AnalyzeResponse
	err := c.call(ctx, http.MethodPost, "/v1/analyze", func() ([]byte, error) {
		r := req
		propagateDeadline(ctx, &r.TimeoutMs)
		return json.Marshal(&r)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// AnalyzeBatch evaluates up to the server's max-batch requests in one
// call; the response preserves input order.
func (c *Client) AnalyzeBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	var out serve.BatchResponse
	err := c.call(ctx, http.MethodPost, "/v1/analyze/batch", func() ([]byte, error) {
		r := req
		propagateDeadline(ctx, &r.TimeoutMs)
		return json.Marshal(&r)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// DSE runs a bounded design-space sweep for one layer.
func (c *Client) DSE(ctx context.Context, req serve.DSERequest) (*serve.DSEResponse, error) {
	var out serve.DSEResponse
	err := c.call(ctx, http.MethodPost, "/v1/dse", func() ([]byte, error) {
		r := req
		propagateDeadline(ctx, &r.TimeoutMs)
		return json.Marshal(&r)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Fusion runs a graph-level fusion sweep for one zoo model.
func (c *Client) Fusion(ctx context.Context, req serve.FusionRequest) (*serve.FusionResponse, error) {
	var out serve.FusionResponse
	err := c.call(ctx, http.MethodPost, "/v1/fusion", func() ([]byte, error) {
		r := req
		propagateDeadline(ctx, &r.TimeoutMs)
		return json.Marshal(&r)
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Models lists the server's model zoo, dataflow names, and hardware
// presets.
func (c *Client) Models(ctx context.Context) (*serve.ModelsResponse, error) {
	var out serve.ModelsResponse
	err := c.call(ctx, http.MethodGet, "/v1/models", nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// TraceSegments fetches one distributed trace's span segments buffered
// on the server (GET /debug/trace/segments?trace=...). The trace ID is
// the capability: only the coordinator that minted it can name it.
func (c *Client) TraceSegments(ctx context.Context, traceID string) (*serve.SegmentsResponse, error) {
	var out serve.SegmentsResponse
	err := c.call(ctx, http.MethodGet, "/debug/trace/segments?trace="+url.QueryEscape(traceID), nil, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText scrapes the server's /metrics endpoint and returns the
// raw Prometheus text exposition, for federation by a coordinator.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	var raw []byte
	if err := c.call(ctx, http.MethodGet, "/metrics", nil, &raw); err != nil {
		return "", err
	}
	return string(raw), nil
}

// Status performs a single liveness probe (GET /v1/status) and decodes
// the node's status document. It deliberately bypasses the retry loop
// and the circuit breaker: a probe is a question about the node's
// state, and asking it must neither mask an unhealthy answer behind
// retries nor pollute the breaker that guards real traffic.
func (c *Client) Status(ctx context.Context) (*serve.StatusResponse, error) {
	res, err := c.roundTrip(ctx, http.MethodGet, "/v1/status", nil, 0)
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, &APIError{Status: res.status, Message: errorMessage(res.body), RequestID: res.requestID}
	}
	var out serve.StatusResponse
	if err := json.Unmarshal(res.body, &out); err != nil {
		return nil, fmt.Errorf("client: decoding status: %w", err)
	}
	return &out, nil
}

// propagateDeadline fills *ms with the context's remaining budget when
// the caller did not set one, so the server's queue-deadline shedding
// and per-request timeout see the true deadline. Re-evaluated on every
// retry: the budget shrinks as attempts burn it.
func propagateDeadline(ctx context.Context, ms *int) {
	if *ms != 0 {
		return
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	rem := time.Until(dl).Milliseconds()
	if rem < 1 {
		rem = 1
	}
	*ms = int(rem)
}

// retryableStatus reports whether a status code is worth re-attempting:
// backpressure (429), injected/transient server faults (500, 502), and
// unavailability (503, 504). Everything else in the 4xx range is the
// caller's mistake and terminal.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// maxErrBody caps how much of an error body the client reads.
const maxErrBody = 1 << 20

// maxRespBody caps success bodies (DSE responses can run to megabytes).
const maxRespBody = 64 << 20

// attemptResult is one fully-consumed HTTP exchange.
type attemptResult struct {
	status    int
	header    http.Header
	body      []byte
	requestID string
}

// call runs the retry loop: breaker gate, exchange, classification,
// jittered ctx-aware backoff. Every return is a terminal verdict: a
// decoded response, an *APIError, a breaker/exhaustion error, or the
// context's own error.
func (c *Client) call(ctx context.Context, method, path string, mkBody func() ([]byte, error), out any) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return c.terminal(err, lastErr)
		}
		if attempt > 0 {
			c.retries.Add(1)
		}
		res, err := c.attemptOnce(ctx, method, path, mkBody, attempt)
		var hint time.Duration
		switch {
		case err == nil && res.status == http.StatusOK:
			switch dst := out.(type) {
			case nil:
			case *[]byte:
				// Raw (non-JSON) endpoints, e.g. the /metrics text format.
				*dst = res.body
			default:
				if derr := json.Unmarshal(res.body, out); derr != nil {
					return fmt.Errorf("client: decoding %s response: %w", path, derr)
				}
			}
			return nil
		case err == nil:
			apiErr := &APIError{
				Status:    res.status,
				Message:   errorMessage(res.body),
				RequestID: res.requestID,
			}
			if !retryableStatus(res.status) {
				return apiErr
			}
			hint = retryAfterHint(&http.Response{Header: res.header})
			lastErr = apiErr
		default:
			// Context errors are the caller's verdict, not the server's.
			if ctx.Err() != nil {
				return c.terminal(ctx.Err(), lastErr)
			}
			lastErr = err
		}
		if attempt == c.opts.MaxAttempts-1 {
			break
		}
		if !sleepCtx(ctx, c.bo.delay(attempt, hint)) {
			return c.terminal(ctx.Err(), lastErr)
		}
	}
	return fmt.Errorf("%w after %d attempts: %w", ErrExhausted, c.opts.MaxAttempts, lastErr)
}

// terminal shapes a context-abort verdict, attaching the last transport
// or server error when one exists.
func (c *Client) terminal(ctxErr, lastErr error) error {
	if lastErr != nil {
		return fmt.Errorf("client: %w (last attempt error: %w)", ctxErr, lastErr)
	}
	return fmt.Errorf("client: %w", ctxErr)
}

// attemptOnce runs one breaker-gated exchange and records the outcome
// with the breaker.
func (c *Client) attemptOnce(ctx context.Context, method, path string, mkBody func() ([]byte, error), attempt int) (*attemptResult, error) {
	if !c.br.Allow() {
		c.breakerRejected.Add(1)
		return nil, fmt.Errorf("%w: host %s", ErrCircuitOpen, c.br.host)
	}
	var payload []byte
	if mkBody != nil {
		var err error
		payload, err = mkBody()
		if err != nil {
			c.br.Success() // local marshalling says nothing about the server
			return nil, fmt.Errorf("client: encoding %s request: %w", path, err)
		}
	}
	res, err := c.roundTrip(ctx, method, path, payload, attempt)
	switch {
	case err != nil:
		if ctx.Err() == nil {
			// A transport-level failure with a live context is the
			// server's (or network's) fault.
			c.br.Failure()
		}
	case res.status >= 500:
		c.br.Failure()
	default:
		// 2xx–4xx means the server is alive and reasoning; 429 in
		// particular is healthy backpressure, not breaker fodder.
		c.br.Success()
	}
	return res, err
}

// roundTrip runs one exchange and fully consumes the body. Each
// exchange gets its own client.attempt span — retries are separate
// spans tagged with their attempt number and target host — whose ID is
// what the remote side parents under, and whose start/end bracket the
// exchange for clock-skew correction during trace assembly.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte, attempt int) (*attemptResult, error) {
	c.attempts.Add(1)
	u := *c.base
	p := path
	if i := strings.IndexByte(p, '?'); i >= 0 {
		u.RawQuery = p[i+1:]
		p = p[:i]
	}
	u.Path = strings.TrimRight(u.Path, "/") + p
	sctx, span := obs.Start(ctx, "client.attempt",
		obs.String("host", u.Host), obs.String("path", p),
		obs.Int("attempt", attempt))
	defer span.End()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, u.String(), body)
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", userAgent)
	if id := requestIDFrom(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	// Propagate the trace context so the server's spans parent under
	// this attempt's span. No-op when tracing is off.
	obs.Inject(sctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		span.SetAttr(obs.String("error", err.Error()))
		return nil, err
	}
	defer resp.Body.Close()
	span.SetAttr(obs.Int("status", resp.StatusCode))
	limit := int64(maxErrBody)
	if resp.StatusCode == http.StatusOK {
		limit = maxRespBody
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	return &attemptResult{
		status:    resp.StatusCode,
		header:    resp.Header,
		body:      b,
		requestID: resp.Header.Get("X-Request-ID"),
	}, nil
}

// errorMessage extracts the server's {"error": ...} body, falling back
// to the raw text.
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// sleepCtx waits d or until ctx is done; reports whether the full wait
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
