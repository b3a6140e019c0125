// maestro-serve runs the MAESTRO cost model as a concurrent HTTP
// analysis service: POST /v1/analyze and /v1/analyze/batch evaluate a
// layer + dataflow + hardware configuration through a canonical-request
// result cache and a bounded worker pool, POST /v1/dse sweeps a design
// space, GET /v1/models lists the model zoo, GET /metrics exposes
// Prometheus-format counters (latency, cache hit ratio, queue depth),
// and GET /debug/trace — served from the private -pprof listener —
// captures a window of live traffic as Chrome trace_event JSON.
//
// Usage:
//
//	maestro-serve [-addr :8080] [-workers N] [-queue N] [-cache N]
//	              [-timeout 15s] [-max-batch N]
//	              [-log-format text|json] [-log-level info]
//	              [-pprof :6060] [-debug-trace]
//
// The trace-capture endpoint lives on the private -pprof listener
// alongside net/http/pprof; -debug-trace opts in to also exposing it on
// the public API address. Every response carries an X-Request-ID header
// (echoing the client's, if supplied) that also tags the access-log
// line and every span of the request's trace. Shutdown is graceful: on
// SIGINT/SIGTERM both listeners stop, in-flight and queued analyses
// drain, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	node := flag.String("node", "",
		"node name reported in maestro_build_info, /v1/status, and trace segments (default: hostname)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "analysis worker count")
	queue := flag.Int("queue", 256, "work queue depth before 429 backpressure")
	cache := flag.Int("cache", 4096, "result cache entries (negative disables)")
	timeout := flag.Duration("timeout", 15*time.Second, "default per-request deadline")
	maxBatch := flag.Int("max-batch", 256, "max requests per batch call")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain deadline")
	logFormat := flag.String("log-format", "text", "access-log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof and /debug/trace on this private address (empty disables)")
	debugTrace := flag.Bool("debug-trace", false,
		"also expose GET /debug/trace on the public API address")
	chaosErrRate := flag.Float64("chaos-error-rate", 0,
		"fault injection: probability in [0,1] of answering a /v1/* request with -chaos-error-code")
	chaosErrCode := flag.Int("chaos-error-code", 500,
		"fault injection: HTTP status of injected errors")
	chaosLatency := flag.Duration("chaos-latency", 0,
		"fault injection: base added latency per /v1/* request")
	chaosJitter := flag.Duration("chaos-latency-jitter", 0,
		"fault injection: extra uniform random latency in [0, jitter)")
	chaosSeed := flag.Int64("chaos-seed", 0,
		"fault injection: RNG seed for reproducible runs (0 = random)")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maestro-serve:", err)
		os.Exit(2)
	}

	chaos := serve.Chaos{
		ErrorRate:     *chaosErrRate,
		ErrorCode:     *chaosErrCode,
		Latency:       *chaosLatency,
		LatencyJitter: *chaosJitter,
		Seed:          *chaosSeed,
	}
	s := serve.New(serve.Options{
		NodeName:       *node,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		MaxBatch:       *maxBatch,
		Logger:         logger,
		DebugTrace:     *debugTrace,
		Chaos:          chaos,
	})
	if *chaosErrRate > 0 || *chaosLatency > 0 || *chaosJitter > 0 {
		logger.Warn("chaos fault injection enabled",
			"error_rate", *chaosErrRate, "error_code", *chaosErrCode,
			"latency", *chaosLatency, "jitter", *chaosJitter, "seed", *chaosSeed)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofSrv = newPprofServer(*pprofAddr, s)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	// The listener goroutine reports only *real* failures: ErrServerClosed
	// is the normal result of Shutdown and must never race the signal
	// path into a fatal exit.
	errCh := make(chan error, 1)
	go func() {
		err := srv.ListenAndServe()
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		errCh <- err
	}()
	logger.Info("listening", "addr", *addr, "workers", *workers,
		"queue", *queue, "cache_entries", *cache)

	select {
	case err := <-errCh:
		if err != nil {
			logger.Error("listen failed", "error", err)
			os.Exit(1)
		}
		return // listener closed without a signal; nothing left to drain
	case <-ctx.Done():
	}

	logger.Info("shutting down: draining connections and queued work", "max", *drain)
	// Flip readiness first: /healthz answers 503 from here on, so load
	// balancers stop routing new work while the listener finishes
	// in-flight requests below. Shutdown closes the listener at once, so
	// a fleet coordinator's next dial is refused and trips this node's
	// breaker in its client.
	s.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	if pprofSrv != nil {
		if err := pprofSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("pprof shutdown", "error", err)
		}
	}
	s.Close() // drain the worker pool
	logger.Info("bye")
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (have text, json)", format)
}

// newPprofServer builds the private debug server: the net/http/pprof
// handlers plus the span-capture endpoint, on a dedicated mux so the
// profiling surface never shares a listener with the service API. It is
// a real http.Server so shutdown drains it alongside the main listener.
func newPprofServer(addr string, s *serve.Server) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/trace", s.DebugTraceHandler())
	mux.Handle("/debug/trace/segments", s.SegmentsHandler())
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
}
