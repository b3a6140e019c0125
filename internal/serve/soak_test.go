// Chaos/soak harness: N concurrent resilient clients hammer an
// in-process server with injected faults, proving that every request
// ends in a terminal verdict, retries converge, the circuit breaker
// walks its full state cycle during a blackout, and goroutine/FD
// counts return to baseline after drain. External test package on
// purpose: the client imports serve, so this is the only side of the
// fence both can be seen from.
package serve_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// soakRequest builds the i-th analyze request: channel counts vary so
// the cache sees distinct keys, and odd indices bypass the cache to
// keep the worker pool loaded.
func soakRequest(i int) serve.AnalyzeRequest {
	return serve.AnalyzeRequest{
		Layer: serve.LayerSpec{
			Op: "CONV2D", K: 16 + 16*(i%8), C: 16, Y: 18, X: 18, R: 3, S: 3,
		},
		Dataflow: serve.DataflowSpec{Name: "KC-P"},
		HW:       serve.HWSpec{Preset: "MAERI64"},
		NoCache:  i%2 == 1,
	}
}

// terminalVerdict classifies a client error as one of the allowed
// terminal outcomes; anything else is a harness failure.
func terminalVerdict(err error) (string, bool) {
	var apiErr *client.APIError
	switch {
	case err == nil:
		return "ok", true
	case errors.Is(err, client.ErrExhausted):
		return "exhausted", true
	case errors.Is(err, client.ErrCircuitOpen):
		return "breaker", true
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "ctx", true
	case errors.As(err, &apiErr):
		return fmt.Sprintf("api-%d", apiErr.Status), true
	}
	return err.Error(), false
}

// metricValue scrapes one sample (exact exposition line prefix,
// labels included) from the server's /metrics endpoint.
func metricValue(t *testing.T, baseURL, sample string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, sample+" ") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimPrefix(line, sample+" "), 10, 64)
		if err != nil {
			t.Fatalf("parse sample %q: %v", line, err)
		}
		return v
	}
	return 0
}

// countFDs reports open file descriptors via /proc (linux); -1 when
// that view is unavailable.
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness skipped in -short mode")
	}
	baseGoroutines := runtime.NumGoroutine()
	baseFDs := countFDs()

	s := serve.New(serve.Options{
		Workers:    4,
		QueueDepth: 128,
		Chaos: serve.Chaos{
			ErrorRate:     0.05,
			Latency:       100 * time.Microsecond,
			LatencyJitter: 2 * time.Millisecond,
			Seed:          42,
		},
	})
	ts := httptest.NewServer(s.Handler())

	// ---- Phase 1: soak. Six clients, mixed analyze/batch/models
	// traffic, 5% injected 500s and jittered latency. Every call must
	// land on a terminal verdict.
	const nClients = 6
	const perClient = 25

	clients := make([]*client.Client, nClients)
	for i := range clients {
		c, err := client.New(client.Options{
			BaseURL:     ts.URL,
			MaxAttempts: 5,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			Seed:        int64(i + 1),
			Breaker:     client.BreakerOptions{FailureThreshold: 10, Cooldown: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}

	var mu sync.Mutex
	verdicts := map[string]int{}
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				var err error
				switch {
				case i%6 == 5:
					_, err = c.AnalyzeBatch(ctx, serve.BatchRequest{Requests: []serve.AnalyzeRequest{
						soakRequest(i), soakRequest(i + 1), soakRequest(i + 2),
					}})
				case i%7 == 6:
					_, err = c.Models(ctx)
				default:
					_, err = c.Analyze(ctx, soakRequest(ci*perClient+i))
				}
				cancel()
				verdict, terminal := terminalVerdict(err)
				mu.Lock()
				verdicts[verdict]++
				mu.Unlock()
				if !terminal {
					t.Errorf("client %d call %d: non-terminal error: %v", ci, i, err)
				}
			}
		}(ci, c)
	}
	wg.Wait()

	total := nClients * perClient
	if got := verdicts["ok"]; got < total*95/100 {
		t.Fatalf("soak success %d/%d below 95%% (verdicts: %v)", got, total, verdicts)
	}
	t.Logf("soak verdicts: %v", verdicts)

	var totalRetries int64
	for _, c := range clients {
		totalRetries += c.Stats().Retries
	}
	injected := metricValue(t, ts.URL, `maestro_chaos_injected_total{kind="error"}`)
	if injected == 0 {
		t.Error("chaos injected no errors over the soak; ErrorRate plumbing is broken")
	}
	if injected > 0 && totalRetries == 0 {
		t.Errorf("server injected %d errors but clients recorded zero retries", injected)
	}
	t.Logf("injected=%d retries=%d", injected, totalRetries)

	// ---- Phase 2: blackout. Every request fails; the breaker must
	// open and start rejecting locally.
	s.SetChaos(serve.Chaos{ErrorRate: 1.0, Seed: 7})

	var transMu sync.Mutex
	var transitions []string
	bc, err := client.New(client.Options{
		BaseURL:     ts.URL,
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Seed:        99,
		Breaker: client.BreakerOptions{
			FailureThreshold: 3,
			Cooldown:         100 * time.Millisecond,
			OnStateChange: func(host string, from, to client.BreakerState) {
				transMu.Lock()
				transitions = append(transitions, from.String()+">"+to.String())
				transMu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	sawBreakerVerdict := false
	for i := 0; i < 20 && bc.BreakerState() != client.BreakerOpen; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := bc.Analyze(ctx, soakRequest(i))
		cancel()
		if err == nil {
			t.Fatal("blackout phase: call succeeded with ErrorRate=1")
		}
		if errors.Is(err, client.ErrCircuitOpen) {
			sawBreakerVerdict = true
		}
	}
	if got := bc.BreakerState(); got != client.BreakerOpen {
		t.Fatalf("breaker state after blackout = %v, want open", got)
	}
	// One more call against the open breaker: must be rejected locally.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_, err = bc.Analyze(ctx, soakRequest(0))
	cancel()
	if !errors.Is(err, client.ErrCircuitOpen) {
		t.Fatalf("call against open breaker = %v, want ErrCircuitOpen", err)
	}
	sawBreakerVerdict = true
	if !sawBreakerVerdict || bc.Stats().BreakerRejected == 0 {
		t.Fatalf("breaker never rejected locally (stats: %+v)", bc.Stats())
	}

	// ---- Phase 3: recovery. Faults off, cooldown lapses, the
	// half-open probe succeeds and the breaker closes.
	s.SetChaos(serve.Chaos{})
	recovered := waitFor(5*time.Second, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := bc.Analyze(ctx, soakRequest(3))
		cancel()
		return err == nil
	})
	if !recovered {
		t.Fatal("client never recovered after chaos was disabled")
	}
	if got := bc.BreakerState(); got != client.BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", got)
	}

	transMu.Lock()
	trace := strings.Join(transitions, " ")
	transMu.Unlock()
	for _, want := range []string{"closed>open", "open>half-open", "half-open>closed"} {
		if !strings.Contains(trace, want) {
			t.Errorf("breaker transitions %q missing %q", trace, want)
		}
	}

	shed := metricValue(t, ts.URL, "maestro_shed_total")
	t.Logf("breaker transitions: %s; shed_total=%d", trace, shed)

	// ---- Drain: close everything and verify goroutines and FDs
	// return to baseline.
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	bc.CloseIdleConnections()
	ts.Close()
	s.Close()

	if !waitFor(10*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseGoroutines+3
	}) {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
			baseGoroutines, runtime.NumGoroutine(), buf[:n])
	}
	if baseFDs >= 0 {
		if !waitFor(10*time.Second, func() bool { return countFDs() <= baseFDs+3 }) {
			t.Fatalf("file descriptors leaked: baseline %d, now %d", baseFDs, countFDs())
		}
	}
}
