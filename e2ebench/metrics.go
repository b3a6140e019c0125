package main

// metricDef is one metric as declared in BENCHMARK.json; bench_test.go
// checks that the two lists below and the file agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are printed by every untraced run. Each one is measured on
// all three workloads: an end-to-end metric must be non-zero on every
// workload, so the op classes only some workloads run (analyze, tune,
// simulate, hit, miss, batch) are per-layer rows below.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"dse_ms", "ms", "lower", 0.25},
	{"fusion_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are printed by every traced run. A layer a workload does not
// reach reads 0 there.
var perLayer = []metricDef{
	// Op classes measured in the untraced blocks of the traced run.
	{"analyze_ms", "ms", "lower", 0},
	{"analyze_tail_ms", "ms", "lower", 0},
	{"analyze_n", "count", "higher", 0},
	{"tune_ms", "ms", "lower", 0},
	{"tune_tail_ms", "ms", "lower", 0},
	{"tune_n", "count", "higher", 0},
	{"simulate_ms", "ms", "lower", 0},
	{"simulate_tail_ms", "ms", "lower", 0},
	{"simulate_n", "count", "higher", 0},
	{"hit_ms", "ms", "lower", 0},
	{"hit_tail_ms", "ms", "lower", 0},
	{"hit_n", "count", "higher", 0},
	{"miss_ms", "ms", "lower", 0},
	{"miss_tail_ms", "ms", "lower", 0},
	{"miss_n", "count", "higher", 0},
	{"batch_ms", "ms", "lower", 0},
	{"batch_tail_ms", "ms", "lower", 0},
	{"batch_n", "count", "higher", 0},
	{"dse_tail_ms", "ms", "lower", 0},
	{"dse_n", "count", "higher", 0},
	{"fusion_tail_ms", "ms", "lower", 0},
	{"fusion_n", "count", "higher", 0},

	// Engine layers, from spans: self time per call, calls per op.
	{"dataflow.resolve_ms", "ms", "lower", 0},
	{"core.analyze_ms", "ms", "lower", 0},
	{"core.analyze_calls", "1/op", "lower", 0},
	{"core.profile_ms", "ms", "lower", 0},
	{"core.profiles", "1/op", "lower", 0},
	{"core.price_ms", "ms", "lower", 0},
	{"core.priced_points", "1/op", "lower", 0},
	{"core.profile_cache_hit_ratio", "ratio", "higher", 0},
	{"dse.explore_ms", "ms", "lower", 0},
	{"dse.explored", "1/op", "higher", 0},
	{"dse.valid_ratio", "ratio", "higher", 0},
	{"tuner.tune_ms", "ms", "lower", 0},
	{"tuner.candidates", "1/op", "lower", 0},
	{"netsched.fuse_ms", "ms", "lower", 0},
	{"netsched.fused_groups", "1/op", "higher", 0},
	{"sim.replay_ms", "ms", "lower", 0},
	{"sim.simulate_ms", "ms", "lower", 0},
	{"sim.cycles_per_s", "1/s", "higher", 0},
	{"go.alloc_mb", "MB/op", "lower", 0},
	{"go.gc_cycles", "1/op", "lower", 0},
	{"go.gc_pause_ms", "ms/op", "lower", 0},

	// Service layers: client, node cache/queue/compute, HTTP glue.
	{"client.attempts_per_op", "1/op", "lower", 0},
	{"client.transport_ms", "ms", "lower", 0},
	{"serve.result_cache_hit_ratio", "ratio", "higher", 0},
	{"serve.result_cache_evictions", "count", "lower", 0},
	{"serve.profile_cache_hit_ratio", "ratio", "higher", 0},
	{"serve.queue_ms", "ms", "lower", 0},
	{"serve.cache_ms", "ms", "lower", 0},
	{"serve.compute_ms", "ms", "lower", 0},
	{"serve.request_self_ms", "ms", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},

	// Distribution layer.
	{"fleet.shards", "1/op", "lower", 0},
	{"fleet.redispatched", "count", "lower", 0},
	{"fleet.stolen", "count", "lower", 0},
	{"fleet.discarded", "count", "lower", 0},
	{"fleet.shard_overhead_ms", "ms", "lower", 0},
	{"fleet.node_compute_ms", "ms", "lower", 0},
	{"fleet.profile_cache_hit_ratio", "ratio", "higher", 0},

	// Tracing.
	{"unattributed_pct", "%", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}
