package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/lru"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Options configures a Server. Zero values take the documented
// defaults.
type Options struct {
	// Workers is the analysis worker count (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds queued requests before the server answers 429
	// (default 256).
	QueueDepth int
	// CacheEntries bounds the result cache (default 4096 entries;
	// negative disables caching).
	CacheEntries int
	// DefaultTimeout bounds a request that carries no timeout_ms
	// (default 15s).
	DefaultTimeout time.Duration
	// MaxBatch bounds requests per batch call (default 256).
	MaxBatch int
	// Logger receives structured access logs (one line per request,
	// request-ID-correlated). Nil discards them.
	Logger *slog.Logger
	// DebugTrace mounts GET /debug/trace on the main API handler. It is
	// off by default: the capture endpoint holds a handler goroutine for
	// the window and exposes other tenants' span metadata (layer names,
	// request IDs), so it belongs on a private debug listener — see
	// DebugTraceHandler — unless the deployment opts in.
	DebugTrace bool
	// Chaos configures fault injection on the /v1/* endpoints (seeded
	// error rate and latency distributions) for resilience testing and
	// manual soak runs. The zero value disables injection; it can be
	// reconfigured at runtime with SetChaos.
	Chaos Chaos
	// NodeName identifies this node in distributed-trace segments, the
	// /v1/status payload, and fleet-federated metrics (default: the
	// process hostname, or "node" if that fails).
	NodeName string
	// SegmentTraces bounds the distributed-trace segment store: how many
	// traces' span segments this node buffers for coordinators to pull
	// (default 256; negative disables the store and its endpoint). The
	// store only records requests that arrive with a valid traceparent
	// header, so untraced traffic pays nothing. Each trace buffers up
	// to obs.DefaultSegmentSpans spans (overflow counts into
	// maestro_trace_spans_dropped_total) and is evicted after
	// obs.DefaultSegmentTTL idle; coordinator pulls refresh the clock.
	SegmentTraces int
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 256
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 15 * time.Second
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 256
	}
	if o.NodeName == "" {
		if hn, err := os.Hostname(); err == nil && hn != "" {
			o.NodeName = hn
		} else {
			o.NodeName = "node"
		}
	}
	return o
}

// Server is the analysis service: handlers, worker pool, result cache,
// and metrics registry. Create with New, mount Handler, and Close on
// shutdown to drain in-flight work.
type Server struct {
	opts  Options
	pool  *Pool
	cache *lru.Cache[Key, any]
	reg   *Registry
	log   *slog.Logger
	// capture holds the live /debug/trace recorder; the middleware
	// attaches it to every request context while a window is open.
	capture atomic.Pointer[obs.Recorder]
	// chaos holds the live fault injector; nil means injection is off.
	chaos atomic.Pointer[chaosState]
	// svcTime tracks observed compute durations; the shedding path and
	// the Retry-After hint derive their estimates from its median.
	svcTime svcTimeTracker
	// segments buffers distributed-trace span segments for coordinators
	// to pull; nil when Options.SegmentTraces is negative.
	segments *obs.SegmentStore
	// started anchors the /v1/status uptime.
	started time.Time
	// draining flips when graceful shutdown begins: /healthz (readiness)
	// answers 503 from then on, while /v1/status (liveness) keeps
	// answering 200 so a load balancer can tell draining from dead.
	draining atomic.Bool

	requests        *CounterVec // by endpoint
	responses       *CounterVec // by status code
	evaluations     *Counter
	rejected        *Counter
	timeouts        *Counter
	shed            *Counter
	chaosInjected   *CounterVec // by kind: error / latency
	latency         *Histogram
	batchSize       *Histogram
	stageSeconds    *HistogramVec // queue wait / cache lookup / compute
	endpointSeconds *HistogramVec // end-to-end, by endpoint
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		pool:    NewPool(opts.Workers, opts.QueueDepth),
		cache:   lru.New[Key, any](opts.CacheEntries),
		reg:     NewRegistry(),
		log:     opts.Logger,
		started: time.Now(),
	}
	if s.log == nil {
		s.log = obs.DiscardLogger()
	}
	if opts.SegmentTraces >= 0 {
		s.segments = obs.NewSegmentStore(opts.SegmentTraces, 0, 0)
	}
	s.requests = s.reg.NewCounterVec("maestro_requests_total",
		"Requests received, by endpoint.", "endpoint")
	s.responses = s.reg.NewCounterVec("maestro_responses_total",
		"Responses sent, by HTTP status code.", "code")
	s.evaluations = s.reg.NewCounter("maestro_evaluations_total",
		"Cost-model evaluations actually executed (cache misses).")
	s.rejected = s.reg.NewCounter("maestro_rejected_total",
		"Requests rejected with 429 by queue-depth backpressure.")
	s.timeouts = s.reg.NewCounter("maestro_timeouts_total",
		"Requests that exceeded their deadline while queued or running.")
	s.shed = s.reg.NewCounter("maestro_shed_total",
		"Requests shed because their remaining deadline could not cover the expected queue wait plus observed p50 compute.")
	s.chaosInjected = s.reg.NewCounterVec("maestro_chaos_injected_total",
		"Faults injected by the chaos middleware, by kind.", "kind")
	s.latency = s.reg.NewHistogram("maestro_request_seconds",
		"End-to-end request latency.", ExpBuckets(0.0001, 4, 10))
	s.batchSize = s.reg.NewHistogram("maestro_batch_size",
		"Requests per batch call.", ExpBuckets(1, 2, 10))
	s.stageSeconds = s.reg.NewHistogramVec("maestro_stage_seconds",
		"Per-stage request latency: queue wait, result-cache lookup, compute.",
		"stage", ExpBuckets(0.00001, 4, 10))
	s.endpointSeconds = s.reg.NewHistogramVec("maestro_endpoint_seconds",
		"End-to-end request latency by endpoint.",
		"endpoint", ExpBuckets(0.0001, 4, 10))
	s.reg.NewCounterFunc("maestro_cache_hits_total",
		"Analyses served from the result cache.", s.cache.Hits)
	s.reg.NewCounterFunc("maestro_cache_misses_total",
		"Analyses that had to compute.", s.cache.Misses)
	s.reg.NewCounterFunc("maestro_cache_coalesced_total",
		"Requests that joined an identical in-flight computation.", s.cache.Coalesced)
	s.reg.NewCounterFunc("maestro_cache_evictions_total",
		"LRU evictions from the result cache.", s.cache.Evictions)
	s.reg.NewGaugeFunc("maestro_cache_entries",
		"Entries resident in the result cache.", func() int64 { return int64(s.cache.Len()) })
	profiles := core.DefaultProfileCache
	s.reg.NewCounterFunc("maestro_profile_cache_hits_total",
		"Layer profiles served from the shared profile cache.", profiles.Hits)
	s.reg.NewCounterFunc("maestro_profile_cache_misses_total",
		"Layer profiles that had to run the cluster walk.", profiles.Misses)
	s.reg.NewCounterFunc("maestro_profile_cache_coalesced_total",
		"Profile requests that joined an identical in-flight walk.", profiles.Coalesced)
	s.reg.NewCounterFunc("maestro_profile_cache_evictions_total",
		"LRU evictions from the shared profile cache.", profiles.Evictions)
	s.reg.NewGaugeFunc("maestro_profile_cache_entries",
		"Profiles resident in the shared profile cache.", func() int64 { return int64(profiles.Len()) })
	s.reg.NewGaugeFunc("maestro_queue_depth",
		"Jobs waiting in the worker queue.", s.pool.QueueDepth)
	s.reg.NewGaugeFunc("maestro_inflight",
		"Jobs currently executing.", s.pool.Running)
	version, goVersion, commit := buildInfo()
	s.reg.NewInfoGauge("maestro_build_info",
		"Build metadata of this maestro-serve binary.",
		[2]string{"version", version},
		[2]string{"go_version", goVersion},
		[2]string{"commit", commit},
		[2]string{"node", opts.NodeName})
	// Silent span loss is invisible in the trace itself; the drop total
	// covers the per-request recorders, the segment store's caps, and an
	// open /debug/trace capture window.
	s.reg.NewCounterFunc("maestro_trace_spans_dropped_total",
		"Trace spans discarded by recorder limits or segment-store caps.",
		func() int64 {
			var n int64
			if s.segments != nil {
				n += s.segments.Dropped()
			}
			if rec := s.capture.Load(); rec != nil {
				n += rec.Dropped()
			}
			return n
		})
	if s.segments != nil {
		s.reg.NewGaugeFunc("maestro_trace_segment_traces",
			"Distributed traces with buffered span segments on this node.",
			func() int64 { return int64(s.segments.Traces()) })
		s.reg.NewGaugeFunc("maestro_trace_segment_spans",
			"Span segments buffered for coordinator pulls.", s.segments.SpanCount)
	}
	if opts.Chaos.enabled() {
		s.chaos.Store(newChaosState(opts.Chaos))
	}
	return s
}

// Close drains the worker pool; queued and running jobs complete.
// Close implies BeginDrain so /healthz stops reporting ready.
func (s *Server) Close() {
	s.BeginDrain()
	s.pool.Close()
}

// BeginDrain marks the server as draining: from this call on, the
// /healthz readiness probe answers 503 with a Retry-After hint so load
// balancers stop routing new work here, while /v1/status keeps
// answering 200 (the process is alive and finishing queued work). A
// fleet coordinator does not read /healthz: maestro-serve closes its
// listener right after this call, and the refused dials trip the
// node's breaker in the coordinator's client. Idempotent; there is no
// way back to ready — a drained server is on its way down.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether graceful drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics exposes the registry (for embedding into a wider process).
func (s *Server) Metrics() *Registry { return s.reg }

// Handler returns the service's HTTP routes, wrapped in the
// observability middleware (request IDs, access logs, span trees).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.path, rt.handle)
	}
	return s.instrument(s.chaosMiddleware(mux))
}

// route is one path Handler mounts.
type route struct {
	path   string
	handle http.HandlerFunc
}

// routes lists the paths Handler mounts under this server's options.
func (s *Server) routes() []route {
	rs := []route{
		{"/healthz", s.handleHealthz},
		{"/metrics", s.handleMetrics},
	}
	if s.opts.DebugTrace {
		rs = append(rs, route{"/debug/trace", s.handleDebugTrace})
	}
	if s.segments != nil {
		// Unlike /debug/trace (which captures *other* tenants' traffic
		// and stays private), segment fetches require the exact 128-bit
		// trace ID — a capability only the trace's own initiator holds —
		// so the endpoint is safe on the API surface, where fleet
		// coordinators can reach it without extra configuration. It is
		// mounted on the private debug listener too.
		rs = append(rs, route{"/debug/trace/segments", s.handleTraceSegments})
	}
	return append(rs,
		route{"/v1/status", s.handleStatus},
		route{"/v1/models", s.handleModels},
		route{"/v1/analyze", s.handleAnalyze},
		route{"/v1/analyze/batch", s.handleBatch},
		route{"/v1/dse", s.handleDSE},
		route{"/v1/fusion", s.handleFusion},
	)
}

// ---- plumbing ----

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// errorStatus maps an error to an HTTP status: typed validation errors
// (malformed dataflow/layer/config, bad request fields) are the
// caller's fault; anything else is a server fault.
func errorStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, errBadRequest),
		errors.Is(err, dataflow.ErrInvalid),
		errors.Is(err, tensor.ErrInvalidLayer),
		errors.Is(err, hw.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPoolClosed), errors.Is(err, ErrShed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON writes v as one line of compact JSON.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	s.responses.With(strconv.Itoa(status)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := errorStatus(err)
	switch status {
	case http.StatusTooManyRequests:
		s.rejected.Inc()
		// The hint tracks the backlog: queued items × observed median
		// compute time / workers, so clients back off proportionally to
		// how far behind the pool actually is.
		w.Header().Set("Retry-After",
			strconv.Itoa(s.retryAfterSeconds(s.pool.QueueDepth())))
	case http.StatusServiceUnavailable:
		if errors.Is(err, ErrShed) {
			w.Header().Set("Retry-After",
				strconv.Itoa(s.retryAfterSeconds(s.pool.QueueDepth())))
		}
	case http.StatusGatewayTimeout:
		s.timeouts.Inc()
	}
	id := RequestIDFrom(r.Context())
	s.log.LogAttrs(r.Context(), slog.LevelWarn, "request_error",
		slog.String("request_id", id),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.String("error", err.Error()))
	s.writeJSON(w, status, map[string]string{"error": err.Error(), "request_id": id})
}

// decodeJSON parses a request body with a size cap and strict fields.
// The body is one JSON value: anything but whitespace after it is a
// 400, as is a body that ends inside it.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("decoding body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequestf("decoding body: data after the JSON value")
	}
	return nil
}

func methodPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// timeoutFor picks the request deadline.
func (s *Server) timeoutFor(ms int) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.opts.DefaultTimeout
}

// evaluate prices the missed members of ms, which share one
// (dataflow, layer, PE-count) profile, and shapes their responses; it
// is the one place the analyses invoke the cost model. Profiles come
// from the shared profile cache, so requests that differ only in
// hardware (and DSE sweeps of the same mapping) share one cluster walk.
// A single member prices alone. Several price in one PriceBatch walk,
// and a member whose configuration fails batch validation is re-priced
// alone so it carries the precise error. A profile-side failure (an
// unresolvable mapping) fails every member alike.
func (s *Server) evaluate(ctx context.Context, ms []batchMember, miss []int) []answer {
	s.evaluations.Add(int64(len(miss)))
	startedAt := time.Now()
	span := obs.SpanFrom(ctx)
	span.SetAttr(obs.String("layer", ms[0].r.layer.Name), obs.String("dataflow", ms[0].r.df.Name))
	var rs []*core.Result
	var err error
	if len(miss) > 1 {
		span.SetAttr(obs.Int("points", len(miss)))
		cfgs := make([]hw.Config, len(miss))
		for j, i := range miss {
			cfgs[j] = ms[i].r.cfg
		}
		rs, err = core.AnalyzeDataflowCachedBatchCtx(ctx, ms[0].r.df, ms[0].r.layer, cfgs)
	}
	out := make([]answer, len(miss))
	for j, i := range miss {
		m := ms[i]
		if err != nil {
			out[j].err = err
			continue
		}
		var res *core.Result
		if rs != nil {
			res = rs[j]
		}
		if res == nil {
			res, out[j].err = core.AnalyzeDataflowCachedCtx(ctx, m.r.df, m.r.layer, m.r.cfg)
		}
		if out[j].err == nil {
			out[j].val = shapeResponse(res, m.key, startedAt)
		}
	}
	return out
}

// shapeResponse converts one cost-model Result into the wire shape.
// ComputeMicros reports time since startedAt: for a grouped batch item
// that is the group's shared walk, not a per-item slice of it.
func shapeResponse(res *core.Result, key Key, startedAt time.Time) *AnalyzeResponse {
	e := res.EnergyDefault()
	return &AnalyzeResponse{
		Key:      key.String(),
		Layer:    res.Layer.Name,
		Dataflow: res.DataflowName,
		HW:       res.Cfg.Name,

		Runtime:       res.Runtime,
		OnChipRuntime: res.OnChipRuntime,
		MACs:          res.MACs,
		UsedPEs:       res.UsedPEs,
		Utilization:   res.Utilization(),
		Throughput:    res.Throughput(),
		Bottleneck:    res.Bottleneck,

		L1ReqBytes: res.L1ReqBytes(),
		L2ReqBytes: res.L2ReqBytes(),
		DRAMReads:  res.DRAMReads,
		DRAMWrites: res.DRAMWrites,
		PeakBWGBps: res.PeakBWGBps(),
		L2Spill:    res.L2Spill,

		Energy: EnergyJSON{
			MAC: e.MAC, L1: e.L1Read + e.L1Write, L2: e.L2Read + e.L2Write,
			NoC: e.NoC, DRAM: e.DRAM, OnChip: e.OnChip(), Total: e.Total(),
		},
		Reuse: ReuseJSON{
			Input:  res.ReuseFactor(tensor.Input),
			Weight: res.ReuseFactor(tensor.Weight),
			Output: res.ReuseFactor(tensor.Output),
		},
		ComputeMicros: time.Since(startedAt).Microseconds(),
	}
}

// analyzeOne resolves, canonicalizes, and serves one request.
func (s *Server) analyzeOne(ctx context.Context, req AnalyzeRequest) (*AnalyzeResponse, error) {
	r, err := resolveRequest(req)
	if err != nil {
		return nil, err
	}
	a := s.analyze(ctx, []batchMember{{r: r, key: canonicalKey(r), noCache: req.NoCache}})[0]
	if a.err != nil {
		return nil, a.err
	}
	return a.val.(*AnalyzeResponse), nil
}

// analyze serves ms — one request, or one profile group of a batch —
// through the pipeline, one answer per member.
func (s *Server) analyze(ctx context.Context, ms []batchMember) []answer {
	keys := make([]Key, len(ms))
	for i, m := range ms {
		keys[i] = m.key
	}
	return s.run(ctx, task{
		keys:    keys,
		noCache: ms[0].noCache,
		compute: func(ctx context.Context, miss []int) []answer { return s.evaluate(ctx, ms, miss) },
	})
}

// ---- handlers ----

// handleHealthz is the readiness probe. Ready answers "ok"; once
// graceful drain begins it answers 503 with a Retry-After derived from
// the remaining backlog, so load balancers stop sending new work while
// queued requests finish. Liveness stays on /v1/status.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.Header().Set("Retry-After",
			strconv.Itoa(s.retryAfterSeconds(s.pool.QueueDepth())))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.reg.Render())
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !methodPost(w, r) {
		return
	}
	s.requests.With("analyze").Inc()
	start := time.Now()
	defer func() { s.latency.Observe(time.Since(start).Seconds()) }()

	var req AnalyzeRequest
	if err := decodeJSON(w, r, 1<<20, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMs))
	defer cancel()
	resp, err := s.analyzeOne(ctx, req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !methodPost(w, r) {
		return
	}
	s.requests.With("batch").Inc()
	start := time.Now()
	defer func() { s.latency.Observe(time.Since(start).Seconds()) }()

	var req BatchRequest
	if err := decodeJSON(w, r, 16<<20, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, r, badRequestf("empty batch"))
		return
	}
	if len(req.Requests) > s.opts.MaxBatch {
		s.writeError(w, r, badRequestf("batch of %d exceeds cap %d",
			len(req.Requests), s.opts.MaxBatch))
		return
	}
	s.batchSize.Observe(float64(len(req.Requests)))
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMs))
	defer cancel()

	// Resolve every item up front so the ones sharing a hardware-
	// independent profile — same dataflow, layer, and PE count, differing
	// only in the rest of the hardware — are served as one group: one
	// queue slot and one PriceBatch walk instead of one pool job each.
	// Items that fail resolution error out immediately; NoCache items
	// are served alone.
	items := make([]BatchItem, len(req.Requests))
	var groups [][]batchMember
	byProfile := map[core.ProfileKey]int{}
	for i := range req.Requests {
		items[i].Index = i
		rr, err := resolveRequest(req.Requests[i])
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		m := batchMember{idx: i, r: rr, key: canonicalKey(rr), noCache: req.Requests[i].NoCache}
		if !m.noCache {
			pk := core.ProfileKeyFor(rr.df, rr.layer, rr.cfg.NumPEs)
			if g, ok := byProfile[pk]; ok {
				groups[g] = append(groups[g], m)
				continue
			}
			byProfile[pk] = len(groups)
		}
		groups = append(groups, []batchMember{m})
	}

	// Fan out; results land at their member's index. Group goroutines
	// write disjoint item slots, and the handler joins every goroutine
	// before reading items.
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for _, ms := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, a := range s.analyze(ctx, ms) {
				it := &items[ms[i].idx]
				if a.err != nil {
					it.Error = a.err.Error()
					if errors.Is(a.err, ErrQueueFull) {
						rejected.Add(1)
					}
					continue
				}
				it.Result = a.val.(*AnalyzeResponse)
			}
		}()
	}
	wg.Wait()
	if rejected.Load() == int64(len(items)) {
		s.writeError(w, r, fmt.Errorf("%w: all %d batch items rejected", ErrQueueFull, len(items)))
		return
	}
	s.writeJSON(w, http.StatusOK, BatchResponse{Results: items})
}

// batchMember is one resolved analysis: its slot in a batch response,
// its validated request, and its result-cache key.
type batchMember struct {
	idx     int
	r       resolved
	key     Key
	noCache bool
}

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	if !methodPost(w, r) {
		return
	}
	s.requests.With("dse").Inc()
	start := time.Now()
	defer func() { s.latency.Observe(time.Since(start).Seconds()) }()

	var req DSERequest
	if err := decodeJSON(w, r, 1<<20, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	sp, err := buildSpace(req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	key := canonicalDSEKey(sp.Layer, req)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMs))
	defer cancel()
	a := s.run(ctx, task{
		keys:    []Key{key},
		noCache: req.NoCache,
		compute: func(ctx context.Context, _ []int) []answer {
			// dse.Explore hangs its explore and per-mapping spans under
			// serve.compute, with the request's baggage.
			span := obs.SpanFrom(ctx)
			span.SetAttr(obs.String("layer", sp.Layer.Name), obs.String("template", sp.Template.Name))
			sp.Ctx = ctx
			resp := runDSE(req, sp)
			resp.Key = key.String()
			span.SetAttr(obs.Int64("explored", resp.Explored))
			return []answer{{val: resp}}
		},
	})[0]
	if a.err != nil {
		s.writeError(w, r, a.err)
		return
	}
	s.writeJSON(w, http.StatusOK, a.val)
}

// ModelsResponse is the body of GET /v1/models.
type ModelsResponse struct {
	Models    []ModelJSON `json:"models"`
	Dataflows []string    `json:"dataflows"`
	Presets   []string    `json:"hw_presets"`
}

// ModelJSON summarizes one zoo model.
type ModelJSON struct {
	Name   string      `json:"name"`
	MACs   int64       `json:"macs"`
	Layers []LayerJSON `json:"layers"`
}

// LayerJSON summarizes one layer of a zoo model.
type LayerJSON struct {
	Name    string `json:"name"`
	Op      string `json:"op"`
	Class   string `json:"class"`
	Count   int    `json:"count"`
	N       int    `json:"n"`
	K       int    `json:"k"`
	C       int    `json:"c"`
	Y       int    `json:"y"`
	X       int    `json:"x"`
	R       int    `json:"r"`
	S       int    `json:"s"`
	StrideY int    `json:"stride_y"`
	StrideX int    `json:"stride_x"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.requests.With("models").Inc()
	resp := ModelsResponse{Dataflows: dataflowNames(), Presets: presetNames()}
	for _, name := range zooNames() {
		m, _ := models.ByName(name)
		mj := ModelJSON{Name: m.Name, MACs: m.MACs()}
		for _, li := range m.Layers {
			l := li.Layer
			mj.Layers = append(mj.Layers, LayerJSON{
				Name: l.Name, Op: l.Op.String(), Class: li.Class.String(),
				Count: li.Count,
				N:     l.Sizes.Get(tensor.N), K: l.Sizes.Get(tensor.K),
				C: l.Sizes.Get(tensor.C), Y: l.Sizes.Get(tensor.Y),
				X: l.Sizes.Get(tensor.X), R: l.Sizes.Get(tensor.R),
				S:       l.Sizes.Get(tensor.S),
				StrideY: l.StrideY, StrideX: l.StrideX,
			})
		}
		resp.Models = append(resp.Models, mj)
	}
	s.writeJSON(w, http.StatusOK, resp)
}
