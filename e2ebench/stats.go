package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// samples collects per-op latencies by op class.
type samples map[string][]time.Duration

func (s samples) add(class string, d time.Duration) { s[class] = append(s[class], d) }

// tailPercentiles are the candidates for a class's tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 50}

// dist summarises one class: its median, mean and total, and its tail,
// the highest percentile with at least ten samples beyond it.
type dist struct {
	N                int
	P50, Mean, Total float64 // ms
	Tail             float64 // ms
	TailPct          float64
	TailBeyond       int
}

func summarize(ds []time.Duration) dist {
	if len(ds) == 0 {
		return dist{}
	}
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	sort.Float64s(ms)
	out := dist{N: len(ms), P50: percentile(ms, 50), Tail: ms[len(ms)-1]}
	for _, v := range ms {
		out.Total += v
	}
	out.Mean = out.Total / float64(len(ms))
	for _, q := range tailPercentiles {
		rank := int(math.Ceil(q / 100 * float64(len(ms))))
		if beyond := len(ms) - rank; beyond >= 10 {
			out.Tail, out.TailPct, out.TailBeyond = ms[rank-1], q, beyond
			break
		}
	}
	return out
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricSet is one run's named metrics, in insertion order.
type metricSet struct {
	names  []string
	values map[string]float64
}

func newMetricSet() *metricSet { return &metricSet{values: map[string]float64{}} }

func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = v
}

// setClass records a class's p50, tail and sample count under the
// <class>_ms, <class>_tail_ms and <class>_n names.
func (m *metricSet) setClass(class string, d dist) {
	m.set(class+"_ms", d.P50)
	m.set(class+"_tail_ms", d.Tail)
	m.set(class+"_n", float64(d.N))
}

// print writes every metric by name with its unit, one per line.
func (m *metricSet) print(w io.Writer) {
	for _, n := range m.names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, m.values[n], unitOf(n))
	}
}

// printClasses writes each op class's median, tail and sample count,
// its mean, and its share of the callers' time, which the deck weights
// in inputs.go aim to make equal across classes.
func printClasses(w io.Writer, s samples) {
	var order []string
	ds := map[string]dist{}
	var total float64
	for c := range s {
		order = append(order, c)
		ds[c] = summarize(s[c])
		total += ds[c].Total
	}
	sort.Strings(order)
	for _, c := range order {
		d := ds[c]
		if d.N == 0 {
			continue
		}
		fmt.Fprintf(w, "  op %-9s n=%-7d p50=%.4f ms  p%g=%.4f ms (%d samples beyond)  mean=%.4f ms  time share %.1f%%\n",
			c, d.N, d.P50, d.TailPct, d.Tail, d.TailBeyond, d.Mean, 100*d.Total/total)
	}
}

// unitOf looks a metric up in the declared lists; metrics printed only
// in the human-readable report carry their unit in their name.
func unitOf(name string) string {
	for _, l := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range l {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_n"):
		return "count"
	}
	return ""
}

// newE2ESet records the end-to-end metrics, all from the untraced loop.
func newE2ESet(u *phase, rss, setup float64) *metricSet {
	m := newMetricSet()
	m.set("ops_per_s", u.opsPerSec())
	m.set("dse_ms", summarize(u.lat["dse"]).P50)
	m.set("fusion_ms", summarize(u.lat["fusion"]).P50)
	m.set("peak_rss_mb", rss)
	m.set("setup_s", setup)
	return m
}

// newLayerSet starts the per-layer rows at zero (a layer the workload
// does not reach reads 0) and fills those every workload measures the
// same way: op classes and the Go runtime from the untraced blocks,
// trace overhead from traced against untraced throughput.
func newLayerSet(u *phase, loop *loopResult) *metricSet {
	m := newMetricSet()
	for _, d := range perLayer {
		m.set(d.Name, 0)
	}
	for class, ds := range u.lat {
		m.setClass(class, summarize(ds))
	}
	m.setGoRuntime(u)
	if t := loop.traced.opsPerSec(); t > 0 {
		m.set("trace_overhead_pct", 100*(u.opsPerSec()-t)/u.opsPerSec())
	}
	return m
}

// report prints the human-readable part of a run: every op class, then
// the metrics of the mode, then the traced split.
func report(rc runConfig, u *phase, e2e, layers *metricSet, agg *spanAgg) {
	w := rc.out
	fmt.Fprintf(w, "  timed loop: %d ops in %.3f s untraced\n", u.ops, u.elapsed.Seconds())
	printClasses(w, u.lat)
	if !rc.trace {
		fmt.Fprintln(w, "  end-to-end metrics:")
		e2e.print(w)
		return
	}
	fmt.Fprintln(w, "  per-layer metrics:")
	layers.print(w)
	agg.printSplit(w)
}
