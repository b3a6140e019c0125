package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Every input the benchmark sends is generated here, as a pure function
// of the seed: this file reads no clock and uses no global random
// source (bench_test.go checks both). Pools are fixed lists built by
// rule. The seed shuffles them: each class walks its pool in seeded
// passes (every member once per pass), and op classes come in seeded
// decks of exact proportions. So the mix and the inputs a run covers
// hardly change with the seed, only their order does, and costly inputs
// (the simulator) are bounded by a size rule, never by measured time.

// Decks: how many ops of each class one shuffled deck holds. The mix is
// an assumption, not measured traffic (the repository has none), fixed
// by one rule: every class gets an equal share of the callers' time, so
// a change of x% in one class's mean moves ops_per_s by about x/k% on a
// workload of k classes. A class's weight is inversely proportional to
// its mean time, measured on a 2-vCPU Xeon VM and scaled to small
// integers; each run prints every class's time share to confirm it.
//
//	local: analyze 1.01 ms, dse 2.29, tune 4.05, fusion 2.27, simulate 0.30
//	serve: hit 0.73 ms, miss 1.05, batch 3.56, dse 1.81, fusion 4.38
//	fleet: dse 5.92 ms, fusion 14.4
var (
	localDeck = []deckEntry{{"analyze", 8}, {"dse", 4}, {"tune", 2}, {"fusion", 4}, {"simulate", 27}}
	serveDeck = []deckEntry{{"hit", 30}, {"miss", 21}, {"batch", 6}, {"dse", 12}, {"fusion", 5}}
	fleetDeck = []deckEntry{{"dse", 5}, {"fusion", 2}}
)

type deckEntry struct {
	class string
	n     int
}

// deck deals op classes in seeded-shuffled decks of exact proportions.
type deck struct {
	rng     *rand.Rand
	entries []deckEntry
	hand    []string
}

func (d *deck) next() string {
	if len(d.hand) == 0 {
		for _, e := range d.entries {
			for i := 0; i < e.n; i++ {
				d.hand = append(d.hand, e.class)
			}
		}
		d.rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	c := d.hand[0]
	d.hand = d.hand[1:]
	return c
}

// cycler walks indices 0..n-1 in seeded passes, each a fresh permutation.
type cycler struct {
	rng   *rand.Rand
	n     int
	order []int
}

func (c *cycler) next() int {
	if len(c.order) == 0 {
		c.order = c.rng.Perm(c.n)
	}
	i := c.order[0]
	c.order = c.order[1:]
	return i
}

// Fixed pools shared by the workloads.

var (
	presetNames = []string{"Accel256", "MAERI64", "Eyeriss168"}
	presets     = map[string]func() hw.Config{"Accel256": hw.Accel256, "MAERI64": hw.MAERI64, "Eyeriss168": hw.Eyeriss168}
	// fusionModels are the zoo models whose graphs fuse at some budget;
	// fusionDataflows are the templates the scheduler is run with.
	fusionModels    = []string{"AlexNet", "VGG16", "ResNet50", "MobileNetV2", "UNet", "GoogLeNet"}
	fusionDataflows = []string{"KC-P", "YR-P", "X-P"}
	fusionBudgets   = []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	dseTemplates    = []string{"KC-P", "YR-P", "YX-P"}
)

// zooLayer is one layer of a zoo model, addressable over HTTP by name.
type zooLayer struct {
	Model string
	Layer tensor.Layer
}

// convLayers lists the conv-like layers of the zoo (the DSE templates
// and the tuner target these), in zoo order.
func convLayers() []zooLayer {
	var out []zooLayer
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			switch li.Layer.Op {
			case tensor.Conv2D, tensor.PointwiseConv:
				out = append(out, zooLayer{Model: name, Layer: li.Layer})
			}
		}
	}
	return out
}

// dsePairs picks n recurring (layer, template) DSE requests by a fixed
// stride through the conv layers.
func dsePairs(n int) []serve.DSERequest {
	convs := convLayers()
	var out []serve.DSERequest
	for i := 0; i < n; i++ {
		zl := convs[(7+i*37)%len(convs)]
		out = append(out, serve.DSERequest{
			Layer:    serve.LayerSpec{Model: zl.Model, Name: zl.Layer.Name},
			Template: dseTemplates[i%len(dseTemplates)],
		})
	}
	return out
}

// fusionCase is one (model, dataflow, budget) of the fusion pool.
type fusionCase struct {
	model, dataflow string
	budget          int64
}

func fusionCases() []fusionCase {
	var out []fusionCase
	for _, m := range fusionModels {
		for _, df := range fusionDataflows {
			for _, b := range fusionBudgets {
				out = append(out, fusionCase{m, df, b})
			}
		}
	}
	return out
}

// dseTemplate maps a style name to the /v1/dse template builder, with the
// service's default knob sweeps.
func dseTemplate(name string) dse.Template {
	t := dse.Template{Name: name, P1: []int{16, 64, 256}, P2: []int{8, 32}}
	switch name {
	case "KC-P":
		t.Build = func(p1, p2 int) dataflow.Dataflow { return dataflows.KCPSized(p1, p2) }
	case "YR-P":
		t.Build = func(p1, p2 int) dataflow.Dataflow { return dataflows.YRPSized(p1, p2) }
	default:
		t.Build = func(p1, _ int) dataflow.Dataflow { return dataflows.YXPSized(p1) }
		t.P2 = []int{1}
	}
	return t
}

// simLayer bounds a zoo layer for the step simulator, whose cost grows
// with the loop nest: batch 1, K and C at most 8, Y and X at most 12.
// On MAERI-64 this keeps every Table 3 dataflow under ~6 ms.
func simLayer(l tensor.Layer) tensor.Layer {
	l.Sizes[tensor.N] = 1
	for _, d := range []tensor.Dim{tensor.K, tensor.C} {
		l.Sizes[d] = min(l.Sizes[d], 8)
	}
	for _, d := range []tensor.Dim{tensor.Y, tensor.X} {
		l.Sizes[d] = min(l.Sizes[d], 12)
	}
	return l.Normalize()
}

// ---- local ----

// localOp is one in-process op; which fields are set depends on Class.
type localOp struct {
	Class    string
	Model    string       // analyze, fusion
	Dataflow string       // analyze, fusion, simulate
	Preset   string       // analyze
	Layer    tensor.Layer // dse, tune, simulate
	Template string       // dse
	PEs      int          // tune
	L2Bytes  int64        // fusion
}

// localPools are the fixed pools the local deck draws from, by class.
type localPools map[string][]localOp

func newLocalPools() (localPools, error) {
	p := localPools{}
	for _, m := range models.Zoo() {
		for _, df := range dataflows.Names {
			for _, pr := range presetNames {
				p["analyze"] = append(p["analyze"], localOp{Class: "analyze", Model: m, Dataflow: df, Preset: pr})
			}
		}
	}
	for _, zl := range convLayers() {
		for _, t := range dseTemplates {
			p["dse"] = append(p["dse"], localOp{Class: "dse", Layer: zl.Layer, Template: t})
		}
	}
	// The tuner pool is small enough that its profiles fit the
	// process-wide profile cache: after each entry's first (cold) draw,
	// tuning re-prices cached profiles.
	for _, name := range []string{"VGG16", "AlexNet"} {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			for _, pes := range []int{64, 256} {
				p["tune"] = append(p["tune"], localOp{Class: "tune", Layer: li.Layer, PEs: pes})
			}
		}
	}
	for _, fc := range fusionCases() {
		p["fusion"] = append(p["fusion"], localOp{Class: "fusion", Model: fc.model, Dataflow: fc.dataflow, L2Bytes: fc.budget})
	}
	// Simulator inputs: every fourth distinct bounded zoo layer, under
	// each Table 3 dataflow that maps it, so a run covers the pool
	// several times over.
	seen := map[string]bool{}
	maeri := hw.MAERI64()
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			l := simLayer(li.Layer)
			key := fmt.Sprint(l.Op, l.Sizes, l.StrideY, l.StrideX)
			if seen[key] || l.Validate() != nil {
				continue
			}
			seen[key] = true
			if len(seen)%4 != 1 {
				continue
			}
			for _, df := range dataflows.Names {
				if _, err := dataflow.Resolve(dataflows.Get(df), l, maeri.NumPEs); err == nil {
					p["simulate"] = append(p["simulate"], localOp{Class: "simulate", Layer: l, Dataflow: df})
				}
			}
		}
	}
	for _, e := range localDeck {
		if len(p[e.class]) == 0 {
			return nil, fmt.Errorf("empty %s pool", e.class)
		}
	}
	return p, nil
}

// localGen deals the seeded local op stream.
type localGen struct {
	pools localPools
	deck  deck
	walk  map[string]*cycler
}

func newLocalGen(seed int64, pools localPools) *localGen {
	rng := rand.New(rand.NewSource(seed))
	g := &localGen{pools: pools, deck: deck{rng: rng, entries: localDeck}, walk: map[string]*cycler{}}
	for _, e := range localDeck {
		g.walk[e.class] = &cycler{rng: rng, n: len(pools[e.class])}
	}
	return g
}

func (g *localGen) next() localOp {
	class := g.deck.next()
	return g.pools[class][g.walk[class].next()]
}

// ---- serve ----

// serveOp is one HTTP request of the serve workload; exactly one of the
// request pointers is set.
type serveOp struct {
	Class   string
	Analyze *serve.AnalyzeRequest
	Batch   *serve.BatchRequest
	DSE     *serve.DSERequest
	Fusion  *serve.FusionRequest
}

// serveGen deals the seeded serve request stream. Hot analyze requests
// repeat (result-cache hits); miss requests pair a recurring
// (layer, dataflow) with a hardware override no other request uses, so
// they miss the result cache but reuse the node's profile; every fourth
// DSE or fusion request re-sends a hot one (a hit that still queues).
type serveGen struct {
	rng            *rand.Rand
	deck           deck
	hot, missPairs []serve.AnalyzeRequest
	dsePairs       []serve.DSERequest
	fusions        []fusionCase
	hotDSE         []serve.DSERequest
	hotFusion      []serve.FusionRequest
	hotW, missW    *cycler
	dseW, fusionW  *cycler
	dseN, fusionN  int
	// unique feeds the per-request overrides. It only grows, so no two
	// generated requests share a cache key unless they are meant to, and
	// it moves budgets by a few bytes at most, the same for every seed.
	unique int64
}

func newServeGen(seed int64) *serveGen {
	rng := rand.New(rand.NewSource(seed))
	g := &serveGen{rng: rng, deck: deck{rng: rng, entries: serveDeck}}
	var all []serve.AnalyzeRequest
	for _, zl := range convLayers() {
		for _, df := range dataflows.Names {
			all = append(all, serve.AnalyzeRequest{
				Layer:    serve.LayerSpec{Model: zl.Model, Name: zl.Layer.Name},
				Dataflow: serve.DataflowSpec{Name: df},
				HW:       serve.HWSpec{Preset: "Accel256"},
			})
		}
	}
	perm := rng.Perm(len(all))
	for i := 0; i < 32; i++ {
		r := all[perm[i]]
		r.HW.Preset = presetNames[i%len(presetNames)]
		g.hot = append(g.hot, r)
	}
	for i := 32; i < 32+24; i++ {
		g.missPairs = append(g.missPairs, all[perm[i]])
	}
	for _, p := range dsePairs(8) {
		p.PEs = []int{64, 128}
		p.BWs = []float64{8, 16, 32}
		p.L1Grid = dse.DefaultGrid(64, 1<<14, 4)
		// The whole front, so answers compare with a local sweep.
		p.TopK = 1 << 20
		g.dsePairs = append(g.dsePairs, p)
	}
	g.fusions = fusionCases()
	g.hotW = &cycler{rng: rng, n: len(g.hot)}
	g.missW = &cycler{rng: rng, n: len(g.missPairs)}
	g.dseW = &cycler{rng: rng, n: len(g.dsePairs)}
	g.fusionW = &cycler{rng: rng, n: len(g.fusions)}
	for i := 0; i < 4; i++ {
		g.hotDSE = append(g.hotDSE, g.freshDSE())
	}
	for i := 0; i < 2; i++ {
		g.hotFusion = append(g.hotFusion, g.freshFusion())
	}
	return g
}

// override gives a miss request a hardware configuration of its own.
func (g *serveGen) override(r serve.AnalyzeRequest) serve.AnalyzeRequest {
	g.unique++
	r.HW.L2Bytes = 256<<10 + g.unique
	bw := 8 << g.rng.Intn(4)
	r.HW.OffchipBandwidth = float64(bw)
	return r
}

func (g *serveGen) freshDSE() serve.DSERequest {
	r := g.dsePairs[g.dseW.next()]
	g.unique++
	r.L2Grid = []int64{1 << 16, 1 << 18, 1 << 20, 1<<20 + 64*g.unique}
	return r
}

func (g *serveGen) freshFusion() serve.FusionRequest {
	fc := g.fusions[g.fusionW.next()]
	g.unique++
	return serve.FusionRequest{
		Model:          fc.model,
		HW:             serve.HWSpec{Preset: "Accel256"},
		Dataflow:       fc.dataflow,
		L2Grid:         []int64{fc.budget + g.unique},
		MaxGroupLayers: []int{2, 8},
	}
}

// warmup lists the requests set-up sends before timing: every hot
// request, and one request per miss pair and DSE pair, so the node's
// result cache holds the hot answers and its profiles are warm.
func (g *serveGen) warmup() []serveOp {
	var ops []serveOp
	for i := range g.hot {
		ops = append(ops, serveOp{Class: "hit", Analyze: &g.hot[i]})
	}
	for _, p := range g.missPairs {
		r := g.override(p)
		ops = append(ops, serveOp{Class: "miss", Analyze: &r})
	}
	for i := range g.hotDSE {
		ops = append(ops, serveOp{Class: "dse", DSE: &g.hotDSE[i]})
	}
	for range g.dsePairs {
		r := g.freshDSE()
		ops = append(ops, serveOp{Class: "dse", DSE: &r})
	}
	for i := range g.hotFusion {
		ops = append(ops, serveOp{Class: "fusion", Fusion: &g.hotFusion[i]})
	}
	return ops
}

func (g *serveGen) next() serveOp {
	class := g.deck.next()
	op := serveOp{Class: class}
	switch class {
	case "hit":
		op.Analyze = &g.hot[g.hotW.next()]
	case "miss":
		r := g.override(g.missPairs[g.missW.next()])
		op.Analyze = &r
	case "batch":
		// Six misses sharing one profile (one PriceBatch group on the
		// node) plus two hot items answered from the result cache.
		pair := g.missPairs[g.missW.next()]
		b := &serve.BatchRequest{}
		for i := 0; i < 6; i++ {
			b.Requests = append(b.Requests, g.override(pair))
		}
		for i := 0; i < 2; i++ {
			b.Requests = append(b.Requests, g.hot[g.hotW.next()])
		}
		op.Batch = b
	case "dse":
		g.dseN++
		r := g.hotDSE[g.dseN%len(g.hotDSE)]
		if g.dseN%4 != 0 {
			r = g.freshDSE()
		}
		op.DSE = &r
	default:
		g.fusionN++
		r := g.hotFusion[g.fusionN%len(g.hotFusion)]
		if g.fusionN%4 != 0 {
			r = g.freshFusion()
		}
		op.Fusion = &r
	}
	return op
}

// ---- fleet ----

// fleetOp is one sweep: DSE (Fleet.Sweep) or fusion (Fleet.SweepFusion).
type fleetOp struct {
	Class  string
	DSE    *serve.DSERequest
	Fusion *serve.FusionRequest
}

// fleetGen deals the seeded sweep stream. DSE sweeps recur over six
// (layer, template) pairs with grids no other sweep uses, so nodes reuse
// profiles but never answer a shard from the result cache. Fusion
// sweeps fix the dataflow and carry two budgets, one shard per node:
// SweepFusion dispatches every chunk at once, so two budgets keep the
// coordinator at two connections.
type fleetGen struct {
	rng         *rand.Rand
	deck        deck
	pairs       []serve.DSERequest
	fusions     []fusionCase
	pairW, fusW *cycler
	unique      int64
}

func newFleetGen(seed int64) *fleetGen {
	rng := rand.New(rand.NewSource(seed))
	g := &fleetGen{rng: rng, deck: deck{rng: rng, entries: fleetDeck}}
	g.pairs = dsePairs(6)
	g.fusions = fusionCases()
	g.pairW = &cycler{rng: rng, n: len(g.pairs)}
	g.fusW = &cycler{rng: rng, n: len(g.fusions)}
	return g
}

var fleetBWs = []float64{4, 8, 16, 32, 64, 128}

// sweep gives a recurring pair grids of its own: four of the six
// bandwidths and a one-off L2 capacity.
func (g *fleetGen) sweep(r serve.DSERequest) serve.DSERequest {
	g.unique++
	perm := g.rng.Perm(len(fleetBWs))
	r.BWs = nil
	for _, i := range perm[:4] {
		r.BWs = append(r.BWs, fleetBWs[i])
	}
	r.L1Grid = dse.DefaultGrid(64, 1<<(14+g.rng.Intn(3)), 2)
	r.L2Grid = append(dse.DefaultGrid(1<<12, 1<<(20+g.rng.Intn(3)), 2), 1<<23+64*g.unique)
	return r
}

// warmup is one sweep per recurring pair, so the timed loop starts with
// warm node profiles.
func (g *fleetGen) warmup() []fleetOp {
	var ops []fleetOp
	for _, p := range g.pairs {
		r := g.sweep(p)
		ops = append(ops, fleetOp{Class: "dse", DSE: &r})
	}
	return ops
}

func (g *fleetGen) next() fleetOp {
	if g.deck.next() == "dse" {
		r := g.sweep(g.pairs[g.pairW.next()])
		return fleetOp{Class: "dse", DSE: &r}
	}
	fc := g.fusions[g.fusW.next()]
	g.unique++
	b := fc.budget + g.unique
	return fleetOp{Class: "fusion", Fusion: &serve.FusionRequest{
		Model:    fc.model,
		HW:       serve.HWSpec{Preset: "Accel256"},
		Dataflow: fc.dataflow,
		L2Grid:   []int64{b, 2 * b},
	}}
}
