package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// keyOf builds a distinct key from n.
func keyOf(n int) Key {
	var k Key
	k[0] = byte(n)
	k[1] = byte(n >> 8)
	k[2] = byte(n >> 16)
	return k
}

func TestPoolBackpressureAndClose(t *testing.T) {
	p := NewPool(1, 1)
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if err := p.Submit(func() {}); err != nil {
		t.Fatalf("queue slot: %v", err)
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-queue Submit = %v; want ErrQueueFull", err)
	}
	if p.Running() != 1 || p.QueueDepth() != 1 {
		t.Errorf("running=%d depth=%d; want 1/1", p.Running(), p.QueueDepth())
	}

	// Close drains: it must block while a job is still running, then
	// return once the gate opens and the queue empties.
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatalf("Close returned with a job still blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close never drained")
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Submit after Close = %v; want ErrPoolClosed", err)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Ops.")
	c.Add(3)
	g := r.NewGauge("test_depth", "Depth.")
	g.Set(-2)
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.NewCounterVec("test_responses_total", "Responses.", "code")
	v.With("500").Inc()
	v.With("200").Add(2)
	r.NewGaugeFunc("test_live", "Live.", func() int64 { return 7 })

	out := r.Render()
	for _, want := range []string{
		"# HELP test_ops_total Ops.",
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		"# TYPE test_depth gauge",
		"test_depth -2",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
		`test_responses_total{code="200"} 2`,
		`test_responses_total{code="500"} 1`,
		"test_live 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// Label children render sorted, so scrapes are deterministic.
	if strings.Index(out, `code="200"`) > strings.Index(out, `code="500"`) {
		t.Errorf("counter vec labels not sorted:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v; want %v", i, got[i], want[i])
		}
	}
}

// TestCanonicalKeyProperties pins the key semantics documented in
// canonical.go: spelling-insensitive for the dataflow, sensitive to
// every model-relevant field, insensitive to presentation-only names.
func TestCanonicalKeyProperties(t *testing.T) {
	base := AnalyzeRequest{
		Layer:    LayerSpec{Name: "l", K: 64, C: 32, Y: 28, X: 28, R: 3, S: 3},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
	}
	keyFor := func(req AnalyzeRequest) Key {
		r, err := resolveRequest(req)
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		return canonicalKey(r)
	}
	k0 := keyFor(base)

	whitespace := base
	whitespace.Dataflow = DataflowSpec{Name: "KC-P", DSL: "  " + strings.ReplaceAll(dfSource(t, "KC-P"), ";", " ;\n")}
	if keyFor(whitespace) != k0 {
		t.Errorf("whitespace spelling changed the key")
	}

	diffLayer := base
	diffLayer.Layer.K = 128
	if keyFor(diffLayer) == k0 {
		t.Errorf("layer change did not change the key")
	}

	diffHW := base
	diffHW.HW.NumPEs = 128
	if keyFor(diffHW) == k0 {
		t.Errorf("hardware change did not change the key")
	}

	diffDF := base
	diffDF.Dataflow = DataflowSpec{Name: "YX-P"}
	if keyFor(diffDF) == k0 {
		t.Errorf("dataflow change did not change the key")
	}
}

// TestDSEKeyProperties checks that every field of a DSE request that
// shapes its answer changes its key, that a value moved across a list
// boundary does too, and that the routing key follows the layer,
// template and PE set only.
func TestDSEKeyProperties(t *testing.T) {
	layer, err := resolveLayer(LayerSpec{Model: "VGG16", Name: "CONV3"})
	if err != nil {
		t.Fatal(err)
	}
	base := DSERequest{
		Template: "KC-P", P1: []int{16, 64}, P2: []int{8}, PEs: []int{64, 128},
		BWs: []float64{8, 16}, L1Grid: []int64{64, 128}, L2Grid: []int64{4096},
		AreaBudgetMM2: 16, PowerBudgetMW: 450, TopK: 32,
		Shard: &DSEShard{Index: 0, Of: 2, PEMin: 64, PEMax: 128, Mappings: []string{"KC-P"}},
	}
	k0 := canonicalDSEKey(layer, base)
	if canonicalDSEKey(layer, base) != k0 {
		t.Fatal("key not deterministic")
	}
	shard := func(f func(*DSEShard)) func(*DSERequest) {
		return func(r *DSERequest) {
			sh := *r.Shard
			f(&sh)
			r.Shard = &sh
		}
	}
	other := layer
	other.StrideX = 2
	for name, edit := range map[string]func(*DSERequest){
		"template":      func(r *DSERequest) { r.Template = "YR-P" },
		"p1":            func(r *DSERequest) { r.P1 = []int{16, 65} },
		"p1 into p2":    func(r *DSERequest) { r.P1, r.P2 = []int{16}, []int{64, 8} },
		"p2":            func(r *DSERequest) { r.P2 = []int{9} },
		"pes":           func(r *DSERequest) { r.PEs = []int{64} },
		"bws":           func(r *DSERequest) { r.BWs = []float64{8, 16.5} },
		"l1 into l2":    func(r *DSERequest) { r.L1Grid, r.L2Grid = []int64{64}, []int64{128, 4096} },
		"l2":            func(r *DSERequest) { r.L2Grid = []int64{4097} },
		"area":          func(r *DSERequest) { r.AreaBudgetMM2 = 17 },
		"power":         func(r *DSERequest) { r.PowerBudgetMW = 451 },
		"top_k":         func(r *DSERequest) { r.TopK = 33 },
		"no shard":      func(r *DSERequest) { r.Shard = nil },
		"shard index":   shard(func(sh *DSEShard) { sh.Index = 1 }),
		"shard of":      shard(func(sh *DSEShard) { sh.Of = 3 }),
		"shard pe_min":  shard(func(sh *DSEShard) { sh.PEMin = 65 }),
		"shard pe_max":  shard(func(sh *DSEShard) { sh.PEMax = 127 }),
		"shard mapping": shard(func(sh *DSEShard) { sh.Mappings = []string{"KC-P", "YR-P"} }),
	} {
		req := base
		edit(&req)
		if canonicalDSEKey(layer, req) == k0 {
			t.Errorf("%s: key unchanged", name)
		}
	}
	if canonicalDSEKey(other, base) == k0 {
		t.Error("layer stride: key unchanged")
	}

	r0 := DSERouteKey(layer, "KC-P", []int{64, 128})
	if DSERouteKey(layer, "KC-P", []int{64, 128}) != r0 {
		t.Fatal("route key not deterministic")
	}
	if DSERouteKey(layer, "YR-P", []int{64, 128}) == r0 ||
		DSERouteKey(layer, "KC-P", []int{64}) == r0 ||
		DSERouteKey(other, "KC-P", []int{64, 128}) == r0 {
		t.Error("route key ignores its layer, template or PE set")
	}
}

func dfSource(t *testing.T, name string) string {
	t.Helper()
	r, err := resolveRequest(AnalyzeRequest{
		Layer:    LayerSpec{Name: "l", K: 8, C: 8, Y: 8, X: 8, R: 3, S: 3},
		Dataflow: DataflowSpec{Name: name},
		HW:       HWSpec{Preset: "Accel256"},
	})
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	return r.df.String()
}

// TestFusionRouteKey pins what fusion chunks route on: the model, the
// dataflow and the resolved hardware, but not the budget or cap axes,
// the shard, or how the hardware is spelled.
func TestFusionRouteKey(t *testing.T) {
	base := FusionRequest{Model: "AlexNet", HW: HWSpec{Preset: "Accel256"}, Dataflow: "KC-P",
		L2Grid: []int64{1 << 16}, MaxGroupLayers: []int{1, 8}}
	key := func(r FusionRequest) Key {
		t.Helper()
		k, err := FusionRouteKey(r)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0 := key(base)
	same := base
	same.L2Grid, same.MaxGroupLayers = []int64{0, 1 << 20}, []int{2}
	same.Shard, same.TimeoutMs, same.NoCache = &FusionShard{Index: 1, Of: 2}, 50, true
	same.HW.NumPEs = 256 // the preset's own PE count
	if key(same) != k0 {
		t.Error("route key depends on budgets, caps, shard, delivery knobs or hardware spelling")
	}
	for name, edit := range map[string]func(*FusionRequest){
		"model":    func(r *FusionRequest) { r.Model = "VGG16" },
		"dataflow": func(r *FusionRequest) { r.Dataflow = "YR-P" },
		"hw":       func(r *FusionRequest) { r.HW.L2Bytes = 256 << 10 },
	} {
		r := base
		edit(&r)
		if key(r) == k0 {
			t.Errorf("%s: route key unchanged", name)
		}
	}
	if _, err := FusionRouteKey(FusionRequest{Model: "AlexNet", HW: HWSpec{Preset: "NoSuchChip"}}); err == nil {
		t.Error("unknown hw preset hashed without an error")
	}
}

func TestKeyString(t *testing.T) {
	k := keyOf(0xAB)
	s := k.String()
	if len(s) != 64 || !strings.HasPrefix(s, fmt.Sprintf("%02x", k[0])) {
		t.Errorf("Key.String() = %q", s)
	}
}
