package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve/client"
)

// This file is the fleet's telemetry federation: the coordinator
// scrapes every node's /metrics endpoint, re-exports each sample under
// the maestro_fleet_ prefix with a node label, adds sum/max aggregates
// across the fleet, and appends its own dispatch counters (sweeps,
// shards, steals, breaker positions, last-sweep shard timeline). The
// result is one exposition a single Prometheus scrape — or a human
// with curl — can read for the whole fleet.

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels string // raw text inside the braces, "" when unlabelled
	value  float64
}

// parsePromText parses the Prometheus text exposition format the serve
// registry renders: `name value` and `name{labels} value` lines,
// comments skipped. Lines that do not parse are dropped — federation
// must degrade, not fail, on a node speaking a newer dialect.
func parsePromText(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name, labels, rest string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := closingBrace(line, i)
			if j < 0 {
				continue
			}
			name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
		} else {
			i := strings.IndexByte(line, ' ')
			if i < 0 {
				continue
			}
			name, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		// An optional timestamp may follow the value; take the first
		// field only.
		if i := strings.IndexByte(rest, ' '); i >= 0 {
			rest = rest[:i]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil || name == "" {
			continue
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out
}

// closingBrace finds the '}' matching the '{' at open, skipping quoted
// label values (which may contain escaped quotes and braces).
func closingBrace(s string, open int) int {
	inQuote := false
	for i := open + 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// nodeScrape is one node's scrape outcome.
type nodeScrape struct {
	host    string
	node    string // label value: the URL's host part
	samples []promSample
	err     error
}

// Federation is one federated scrape of the fleet.
type Federation struct {
	// Text is the merged Prometheus exposition.
	Text string
	// Up maps each host to whether its scrape succeeded.
	Up map[string]bool
	// Elapsed is the scrape's wall time.
	Elapsed time.Duration
}

// FederateMetrics scrapes every node's /metrics concurrently and merges
// the samples into one exposition. A node that fails to answer shows as
// maestro_fleet_up 0; its samples are simply absent.
func (f *Fleet) FederateMetrics(ctx context.Context) (*Federation, error) {
	start := time.Now()
	hosts := append([]string(nil), f.opts.Hosts...)
	sort.Strings(hosts)
	scrapes := make([]nodeScrape, len(hosts))
	var wg sync.WaitGroup
	for i, host := range hosts {
		wg.Add(1)
		go func(i int, host string) {
			defer wg.Done()
			sc := nodeScrape{host: host, node: nodeLabel(host)}
			text, err := f.clients[host].MetricsText(ctx)
			if err != nil {
				sc.err = err
			} else {
				sc.samples = parsePromText(text)
			}
			scrapes[i] = sc
		}(i, host)
	}
	wg.Wait()

	fed := &Federation{Up: make(map[string]bool, len(hosts))}
	var b strings.Builder

	// Liveness first: one series per node, in sorted host order.
	fmt.Fprintf(&b, "# HELP maestro_fleet_up Whether the node answered this scrape.\n# TYPE maestro_fleet_up gauge\n")
	for _, sc := range scrapes {
		up := 0
		if sc.err == nil {
			up = 1
		}
		fed.Up[sc.host] = sc.err == nil
		fmt.Fprintf(&b, "maestro_fleet_up{node=%q} %d\n", sc.node, up)
	}

	// Per-node re-export plus cross-node aggregates, grouped by family
	// name so the output stays a valid exposition (one family block per
	// name).
	type agg struct {
		sum      float64
		max      float64
		nodes    int
		haveMax  bool
		perVal   []string // rendered per-node lines, in scrape order
		sumAggOK bool     // only unlabelled families aggregate cleanly
	}
	fams := map[string]*agg{}
	var order []string
	for _, sc := range scrapes {
		for _, s := range sc.samples {
			a, ok := fams[s.name]
			if !ok {
				a = &agg{sumAggOK: true}
				fams[s.name] = a
				order = append(order, s.name)
			}
			labels := "node=" + strconv.Quote(sc.node)
			if s.labels != "" {
				labels += "," + s.labels
				a.sumAggOK = false
			}
			a.perVal = append(a.perVal,
				fmt.Sprintf("maestro_fleet_%s{%s} %s", s.name, labels, formatValue(s.value)))
			a.sum += s.value
			if !a.haveMax || s.value > a.max {
				a.max, a.haveMax = s.value, true
			}
			a.nodes++
		}
	}
	sort.Strings(order)
	for _, name := range order {
		a := fams[name]
		fmt.Fprintf(&b, "# TYPE maestro_fleet_%s untyped\n", name)
		for _, line := range a.perVal {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "# HELP maestro_fleet_agg Cross-node aggregate of an unlabelled node metric.\n# TYPE maestro_fleet_agg untyped\n")
	for _, name := range order {
		a := fams[name]
		if !a.sumAggOK {
			continue
		}
		fmt.Fprintf(&b, "maestro_fleet_agg{metric=%q,agg=\"sum\"} %s\n", name, formatValue(a.sum))
		fmt.Fprintf(&b, "maestro_fleet_agg{metric=%q,agg=\"max\"} %s\n", name, formatValue(a.max))
	}

	// Coordinator-side dispatch counters and breaker positions.
	st := f.Stats()
	fmt.Fprintf(&b, "# HELP maestro_fleet_sweeps_total Sweeps dispatched by this coordinator.\n# TYPE maestro_fleet_sweeps_total counter\nmaestro_fleet_sweeps_total %d\n", st.Sweeps)
	fmt.Fprintf(&b, "# TYPE maestro_fleet_shards_total counter\nmaestro_fleet_shards_total %d\n", st.Shards)
	fmt.Fprintf(&b, "# TYPE maestro_fleet_redispatched_total counter\nmaestro_fleet_redispatched_total %d\n", st.Redispatched)
	fmt.Fprintf(&b, "# TYPE maestro_fleet_stolen_total counter\nmaestro_fleet_stolen_total %d\n", st.Stolen)
	fmt.Fprintf(&b, "# TYPE maestro_fleet_discarded_total counter\nmaestro_fleet_discarded_total %d\n", st.Discarded)
	fmt.Fprintf(&b, "# TYPE maestro_fleet_node_shards counter\n")
	for _, sc := range scrapes {
		ns := st.PerNode[sc.host]
		fmt.Fprintf(&b, "maestro_fleet_node_shards{node=%q} %d\n", sc.node, ns.Shards)
	}
	fmt.Fprintf(&b, "# TYPE maestro_fleet_node_errors counter\n")
	for _, sc := range scrapes {
		ns := st.PerNode[sc.host]
		fmt.Fprintf(&b, "maestro_fleet_node_errors{node=%q} %d\n", sc.node, ns.Errors)
	}
	fmt.Fprintf(&b, "# HELP maestro_fleet_breaker_state Circuit position per node: 0 closed, 1 half-open, 2 open.\n# TYPE maestro_fleet_breaker_state gauge\n")
	for _, sc := range scrapes {
		ns := st.PerNode[sc.host]
		fmt.Fprintf(&b, "maestro_fleet_breaker_state{node=%q} %d\n", sc.node, breakerValue(ns.Breaker))
	}

	// Shard timeline of the most recent sweep: latency quantiles across
	// its shards, so a dashboard sees straggler spread without tracing.
	if q := f.lastShardQuantiles(); q != nil {
		fmt.Fprintf(&b, "# HELP maestro_fleet_last_sweep_shard_seconds Shard latency quantiles of the most recent sweep.\n# TYPE maestro_fleet_last_sweep_shard_seconds gauge\n")
		for _, it := range q {
			fmt.Fprintf(&b, "maestro_fleet_last_sweep_shard_seconds{quantile=%q} %s\n", it.q, formatValue(it.v))
		}
	}

	fed.Text = b.String()
	fed.Elapsed = time.Since(start)
	return fed, nil
}

// FederationHandler serves the federated exposition over HTTP (mounted
// by maestro-dse's -fleet-metrics listener).
func (f *Fleet) FederationHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		fed, err := f.FederateMetrics(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(fed.Text))
	})
}

type quantileItem struct {
	q string
	v float64
}

// lastShardQuantiles snapshots the most recent sweep's shard latency
// spread (nil when no sweep has completed).
func (f *Fleet) lastShardQuantiles() []quantileItem {
	f.mu.Lock()
	lat := append([]time.Duration(nil), f.lastLatencies...)
	f.mu.Unlock()
	if len(lat) == 0 {
		return nil
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return lat[i].Seconds()
	}
	return []quantileItem{
		{"0.5", at(0.5)}, {"0.9", at(0.9)}, {"1.0", at(1.0)},
	}
}

// nodeLabel reduces a base URL to its host part for the node label.
func nodeLabel(host string) string {
	if u, err := url.Parse(host); err == nil && u.Host != "" {
		return u.Host
	}
	return host
}

// breakerValue maps a breaker position onto a gauge value.
func breakerValue(s client.BreakerState) int {
	switch s {
	case client.BreakerOpen:
		return 2
	case client.BreakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// formatValue renders a sample value the way Prometheus text format
// expects (integers without a decimal point).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
