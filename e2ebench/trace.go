package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// spanAgg folds traced ops into per-span-name self times. A span's self
// time is its duration minus the part of it its children cover; the
// self time of the benchmark's own op root spans is time no layer span
// covers, reported as unattributed.
type spanAgg struct {
	self  map[string]time.Duration
	count map[string]int
	attr  map[string]float64 // "<span>/<attr>" sums of numeric attrs

	ops               int
	rootSelf, rootDur time.Duration
	// shardOverhead sums, per fleet.shard span, its duration minus the
	// node-side http.request spans it covers.
	shardOverhead time.Duration
	shards        int
	orphans       int // spans whose parent was never recorded
}

func newSpanAgg() *spanAgg {
	return &spanAgg{self: map[string]time.Duration{}, count: map[string]int{}, attr: map[string]float64{}}
}

// summedAttrs are the numeric span attributes the rows read.
var summedAttrs = map[string][]string{
	"core.price_batch": {"points"},
	"tuner.layer":      {"evaluated"},
	"sim.Simulate":     {"cycles"},
}

// add folds one set of stitched spans: every op root (a span with no
// parent) and all of its descendants, local and remote.
func (a *spanAgg) add(spans []obs.SpanRecord) {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			a.orphans++
			continue
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				continue
			}
		}
		self := s.Duration() - covered(s, spans, children[s.ID])
		a.self[s.Name] += self
		a.count[s.Name]++
		for _, k := range summedAttrs[s.Name] {
			if v, ok := s.Attr(k); ok {
				f, _ := strconv.ParseFloat(v, 64)
				a.attr[s.Name+"/"+k] += f
			}
		}
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
			a.ops++
			a.rootSelf += self
			a.rootDur += s.Duration()
		}
		if s.Name == "fleet.shard" {
			a.shards++
			a.shardOverhead += s.Duration() - requestTime(s.ID, spans, children)
		}
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p obs.SpanRecord, spans []obs.SpanRecord, kids []int) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k]
		lo, hi := c.Start, c.End
		if lo.Before(p.Start) {
			lo = p.Start
		}
		if hi.After(p.End) {
			hi = p.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			total += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// requestTime sums the node-side http.request spans below span id.
func requestTime(id uint64, spans []obs.SpanRecord, children map[uint64][]int) time.Duration {
	var t time.Duration
	for _, k := range children[id] {
		if spans[k].Name == "http.request" {
			t += spans[k].Duration()
			continue
		}
		t += requestTime(spans[k].ID, spans, children)
	}
	return t
}

// stitch joins one node's segments to the local spans of the same
// traces. Node span IDs are shifted into a range of their own; a node
// root's remote parent (the client.attempt span that sent the request)
// becomes its parent. The processes share one host clock, so no skew
// correction applies.
func stitch(local, remote []obs.SpanRecord) []obs.SpanRecord {
	const off = 1 << 48
	out := append([]obs.SpanRecord(nil), local...)
	for _, s := range remote {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		} else {
			s.Parent = s.RemoteParent
		}
		out = append(out, s)
	}
	return out
}

// selfMs is the mean self time per call of the named spans, in ms.
func (a *spanAgg) selfMs(calls string, names ...string) float64 {
	n := a.count[calls]
	if n == 0 {
		return 0
	}
	var t time.Duration
	for _, name := range names {
		t += a.self[name]
	}
	return float64(t) / 1e6 / float64(n)
}

// perOp is count per traced op.
func (a *spanAgg) perOp(v float64) float64 {
	if a.ops == 0 {
		return 0
	}
	return v / float64(a.ops)
}

// setSpanRows records every span-derived row.
func (m *metricSet) setSpanRows(a *spanAgg) {
	m.set("dataflow.resolve_ms", a.selfMs("dataflow.Resolve", "dataflow.Resolve"))
	m.set("core.analyze_ms", a.selfMs("core.Analyze", "core.Analyze"))
	m.set("core.analyze_calls", a.perOp(float64(a.count["core.Analyze"])))
	m.set("core.profile_ms", a.selfMs("core.profile", "core.profile"))
	m.set("core.profiles", a.perOp(float64(a.count["core.profile"])))
	prices := a.count["core.price"] + a.count["core.price_batch"]
	if prices > 0 {
		m.set("core.price_ms", float64(a.self["core.price"]+a.self["core.price_batch"])/1e6/float64(prices))
	}
	m.set("core.priced_points", a.perOp(float64(a.count["core.price"])+a.attr["core.price_batch/points"]))
	m.set("dse.explore_ms", a.selfMs("dse.explore", "dse.Explore", "dse.explore", "dse.mapping"))
	m.set("tuner.tune_ms", a.selfMs("tuner.layer", "tuner.TuneLayer", "tuner.layer"))
	if n := a.count["tuner.layer"]; n > 0 {
		m.set("tuner.candidates", a.attr["tuner.layer/evaluated"]/float64(n))
	}
	m.set("netsched.fuse_ms", a.selfMs("netsched.RunFused", "netsched.RunFused"))
	m.set("sim.replay_ms", a.selfMs("sim.ReplayFused", "sim.ReplayFused"))
	m.set("sim.simulate_ms", a.selfMs("sim.Simulate", "sim.Simulate"))
	if t := a.self["sim.Simulate"]; t > 0 {
		m.set("sim.cycles_per_s", a.attr["sim.Simulate/cycles"]/t.Seconds())
	}
	m.set("serve.request_self_ms", a.selfMs("http.request", "http.request"))
	m.set("client.transport_ms", a.selfMs("client.attempt", "client.attempt"))
	if a.shards > 0 {
		m.set("fleet.shard_overhead_ms", float64(a.shardOverhead)/1e6/float64(a.shards))
	}
	if a.rootDur > 0 {
		m.set("unattributed_pct", 100*float64(a.rootSelf)/float64(a.rootDur))
	}
}

// layerOf maps a span name to the module that owns it; "op" is the
// benchmark's own root span.
func layerOf(name string) string {
	switch {
	case name == "http.request":
		return "serve"
	case strings.HasPrefix(name, "client."):
		return "serve/client"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// printSplit writes self time per op by layer and by span name, with
// each one's share of traced op time.
func (a *spanAgg) printSplit(w io.Writer) {
	if a.ops == 0 || a.rootDur <= 0 {
		return
	}
	perOp := func(t time.Duration) float64 { return float64(t) / 1e6 / float64(a.ops) }
	share := func(t time.Duration) float64 { return 100 * float64(t) / float64(a.rootDur) }
	layers := map[string]time.Duration{}
	var names []string
	for n, t := range a.self {
		layers[layerOf(n)] += t
		names = append(names, n)
	}
	sort.Strings(names)
	var ls []string
	for l := range layers {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	fmt.Fprintf(w, "  self time per traced op (%d ops, %.4f ms/op; op = not covered by any layer span):\n",
		a.ops, perOp(a.rootDur))
	for _, l := range ls {
		fmt.Fprintf(w, "    layer %-14s %10.4f ms/op %6.2f%%\n", l, perOp(layers[l]), share(layers[l]))
	}
	for _, n := range names {
		fmt.Fprintf(w, "    span  %-24s %10.4f ms/op %6.2f%%  calls=%d\n", n, perOp(a.self[n]), share(a.self[n]), a.count[n])
	}
	if a.orphans > 0 {
		fmt.Fprintf(w, "    %d spans had no recorded parent and were left out\n", a.orphans)
	}
}
