package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/tensor"
)

// randomConv draws a valid CONV2D layer with small random dimensions,
// occasionally sparse, exercising shapes no curated fixture covers.
func randomConv(rng *rand.Rand, i int) tensor.Layer {
	r := []int{1, 3, 5}[rng.Intn(3)]
	s := []int{1, 3, 5}[rng.Intn(3)]
	l := tensor.Layer{
		Name: fmt.Sprintf("rand%d", i),
		Op:   tensor.Conv2D,
		Sizes: tensor.Sizes{
			tensor.N: 1,
			tensor.K: 4 + rng.Intn(29),
			tensor.C: 4 + rng.Intn(29),
			tensor.Y: r + 4 + rng.Intn(16),
			tensor.X: s + 4 + rng.Intn(16),
			tensor.R: r,
			tensor.S: s,
		},
		StrideY: 1, StrideX: 1,
	}
	if rng.Intn(3) == 0 {
		l.Density[tensor.Input] = 0.3 + 0.6*rng.Float64()
		l.Density[tensor.Weight] = 0.3 + 0.6*rng.Float64()
	}
	return l.Normalize()
}

// randomDataflow draws either a Table 3 dataflow or a synthesized DSL
// mapping: K/C/Y/X in shuffled order with random tile sizes, one of
// them spatial, R/S fully unrolled, and sometimes a cluster level.
func randomDataflow(rng *rand.Rand, i int) (dataflow.Dataflow, error) {
	if rng.Intn(3) == 0 {
		names := dataflows.Names
		return dataflows.Get(names[rng.Intn(len(names))]), nil
	}
	dims := []string{"K", "C", "Y", "X"}
	rng.Shuffle(len(dims), func(a, b int) { dims[a], dims[b] = dims[b], dims[a] })
	spatial := rng.Intn(len(dims))
	// Y and X slide a filter window, so their tile must span it
	// (Sz(R)/Sz(S)); K and C tile freely.
	mapFor := func(d string, isSpatial bool) string {
		kind := "TemporalMap"
		if isSpatial {
			kind = "SpatialMap"
		}
		switch d {
		case "Y":
			return fmt.Sprintf("%s(Sz(R),1) Y; ", kind)
		case "X":
			return fmt.Sprintf("%s(Sz(S),1) X; ", kind)
		}
		if isSpatial {
			return fmt.Sprintf("SpatialMap(1,1) %s; ", d)
		}
		size := []int{1, 2, 4, 8}[rng.Intn(4)]
		return fmt.Sprintf("TemporalMap(%d,%d) %s; ", size, size, d)
	}
	dsl := ""
	for j, d := range dims {
		dsl += mapFor(d, j == spatial)
	}
	dsl += "TemporalMap(Sz(R),Sz(R)) R; TemporalMap(Sz(S),Sz(S)) S;"
	if rng.Intn(2) == 0 {
		inner := dims[(spatial+1)%len(dims)]
		dsl += fmt.Sprintf(" Cluster(%d, P); %s", 2<<rng.Intn(2), mapFor(inner, true))
	}
	return dataflow.ParseDataflow(fmt.Sprintf("randdf%d", i), dsl)
}

// TestPriceBandwidthMonotonicProperty is the randomized property pass:
// for random dataflow × layer pairs, as the NoC bus gets wider the
// priced runtime must never increase (more wires can't slow a pipe
// model down), and at every sampled bandwidth both the scalar Price and
// the corresponding PriceBatch lane (the whole axis priced in one walk)
// must remain bit-identical to the fused oracle walk.
func TestPriceBandwidthMonotonicProperty(t *testing.T) {
	const pes = 64
	rng := rand.New(rand.NewSource(0xda7af10))
	checked := 0
	for i := 0; checked < 24 && i < 200; i++ {
		df, err := randomDataflow(rng, i)
		if err != nil {
			t.Fatalf("case %d: synthesized DSL failed to parse: %v", i, err)
		}
		layer := randomConv(rng, i)
		spec, err := dataflow.Resolve(df, layer, pes)
		if err != nil {
			continue // mapping not applicable to this shape; Analyze fails identically
		}
		prof, err := Profile(spec)
		if err != nil {
			t.Fatalf("case %d (%s/%s): Profile: %v", i, df.Name, layer.Name, err)
		}
		bw := 1 + 3*rng.Float64()
		cfgs := make([]hw.Config, 0, 6)
		for p := 0; p < 6; p++ {
			m := noc.Bus(bw)
			m.Reduction = true
			cfgs = append(cfgs, hw.Config{
				Name: fmt.Sprintf("prop-bw%.1f", bw), NumPEs: pes,
				NoCs: []noc.Model{m},
			}.Normalize())
			bw *= 1.5 + rng.Float64()
		}
		batch, errB := prof.PriceBatch(cfgs)
		if errB != nil {
			t.Fatalf("case %d (%s/%s): PriceBatch: %v", i, df.Name, layer.Name, errB)
		}
		prevRuntime := int64(-1)
		for p, cfg := range cfgs {
			bw := cfg.NoCs[0].Bandwidth
			want, errO := oracleAnalyze(spec, cfg)
			got, errP := prof.Price(cfg)
			if (errO == nil) != (errP == nil) {
				t.Fatalf("case %d (%s/%s) bw=%.2f: error mismatch: oracle=%v price=%v",
					i, df.Name, layer.Name, bw, errO, errP)
			}
			if errO != nil {
				t.Fatalf("case %d (%s/%s) bw=%.2f: oracle: %v", i, df.Name, layer.Name, bw, errO)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d (%s/%s) bw=%.2f: Price diverged from the oracle\noracle: %+v\nprice:  %+v",
					i, df.Name, layer.Name, bw, want, got)
			}
			if !reflect.DeepEqual(want, batch[p]) {
				t.Fatalf("case %d (%s/%s) bw=%.2f: PriceBatch diverged from the oracle\noracle: %+v\nbatch:  %+v",
					i, df.Name, layer.Name, bw, want, batch[p])
			}
			if prevRuntime >= 0 && got.Runtime > prevRuntime {
				t.Fatalf("case %d (%s/%s): runtime increased with bandwidth: %d cycles at %.2f elem/cy after %d at narrower pipe",
					i, df.Name, layer.Name, got.Runtime, bw, prevRuntime)
			}
			prevRuntime = got.Runtime
		}
		checked++
	}
	if checked < 24 {
		t.Fatalf("property pass too sparse: only %d resolvable cases out of 200 draws", checked)
	}
}

// mirrorDim swaps the row and column roles of a dimension: Y with X and
// R with S.
func mirrorDim(d tensor.Dim) tensor.Dim {
	switch d {
	case tensor.Y:
		return tensor.X
	case tensor.X:
		return tensor.Y
	case tensor.R:
		return tensor.S
	case tensor.S:
		return tensor.R
	}
	return d
}

// mirrorLayer transposes a layer's rows and columns: the Y/X and R/S
// sizes and the two strides swap.
func mirrorLayer(l tensor.Layer) tensor.Layer {
	m := l
	for _, d := range tensor.AllDims() {
		m.Sizes[mirrorDim(d)] = l.Sizes[d]
	}
	m.StrideY, m.StrideX = l.StrideX, l.StrideY
	return m
}

// mirrorDataflow swaps the same dimensions in every directive and in
// every Sz term of its sizes and offsets. It copies the terms, so the
// shared Table 3 dataflows stay untouched.
func mirrorDataflow(df dataflow.Dataflow) dataflow.Dataflow {
	expr := func(e dataflow.SizeExpr) dataflow.SizeExpr {
		m := dataflow.SizeExpr{Const: e.Const}
		for _, t := range e.Terms {
			m.Terms = append(m.Terms, dataflow.SizeTerm{Dim: mirrorDim(t.Dim), Coef: t.Coef})
		}
		return m
	}
	m := dataflow.Dataflow{Name: df.Name, Directives: make([]dataflow.Directive, len(df.Directives))}
	for i, d := range df.Directives {
		d.Dim = mirrorDim(d.Dim)
		d.Size, d.Offset = expr(d.Size), expr(d.Offset)
		m.Directives[i] = d
	}
	return m
}

// TestXYRelabellingProperty: the model has no preferred spatial axis.
// A layer with its rows and columns swapped, analyzed under the
// dataflow with the same swap, reproduces every Result field but Layer,
// for every zoo layer under every Table 3 dataflow that resolves on
// Accel256 and for random layers whose rows and columns differ.
func TestXYRelabellingProperty(t *testing.T) {
	cfg := hw.Accel256()
	var layers []tensor.Layer
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			layers = append(layers, li.Layer)
		}
	}
	rng := rand.New(rand.NewSource(0x5e1f))
	for i := 0; i < 48; i++ {
		l := randomConv(rng, i)
		l.StrideY, l.StrideX = 1+rng.Intn(2), 1+rng.Intn(2)
		layers = append(layers, l)
	}
	checked := 0
	for _, layer := range layers {
		for _, name := range dataflows.Names {
			df := dataflows.Get(name)
			want, err := AnalyzeDataflow(df, layer, cfg)
			if err != nil {
				continue // mapping not applicable to this shape
			}
			got, err := AnalyzeDataflow(mirrorDataflow(df), mirrorLayer(layer), cfg)
			if err != nil {
				t.Fatalf("%s/%s: the mirror failed where the original analyzed: %v", name, layer.Name, err)
			}
			got.Layer = want.Layer
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s/%s: the mirror's result differs\noriginal: %+v\nmirror:   %+v",
					name, layer.Name, want, got)
			}
			checked++
		}
	}
	if checked < 970 {
		t.Fatalf("only %d layer × dataflow pairs analyzed, want at least the 970 zoo pairs", checked)
	}
	t.Logf("%d layer × dataflow pairs mirror exactly", checked)
}

// TestEnergyLinearityProperty: energy is exactly linear in each
// energy-table entry. Doubling one entry doubles exactly its Breakdown
// component and leaves every other component bit-equal, for every zoo
// layer under every Table 3 dataflow on Accel256.
func TestEnergyLinearityProperty(t *testing.T) {
	cfg := hw.Accel256()
	entries := []struct {
		name  string
		entry func(*energy.Table) *float64
		part  func(*energy.Breakdown) *float64
	}{
		{"MAC", func(t *energy.Table) *float64 { return &t.MAC }, func(b *energy.Breakdown) *float64 { return &b.MAC }},
		{"L1Read", func(t *energy.Table) *float64 { return &t.L1Read }, func(b *energy.Breakdown) *float64 { return &b.L1Read }},
		{"L1Write", func(t *energy.Table) *float64 { return &t.L1Write }, func(b *energy.Breakdown) *float64 { return &b.L1Write }},
		{"L2Read", func(t *energy.Table) *float64 { return &t.L2Read }, func(b *energy.Breakdown) *float64 { return &b.L2Read }},
		{"L2Write", func(t *energy.Table) *float64 { return &t.L2Write }, func(b *energy.Breakdown) *float64 { return &b.L2Write }},
		{"NoCHop", func(t *energy.Table) *float64 { return &t.NoCHop }, func(b *energy.Breakdown) *float64 { return &b.NoC }},
		{"DRAM", func(t *energy.Table) *float64 { return &t.DRAM }, func(b *energy.Breakdown) *float64 { return &b.DRAM }},
	}
	checked := 0
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			for _, dfName := range dataflows.Names {
				r, err := AnalyzeDataflow(dataflows.Get(dfName), li.Layer, cfg)
				if err != nil {
					continue
				}
				table := energy.TableFor(r.L1ReqBytes(), r.L2ReqBytes(), cfg.NumPEs)
				base := r.Energy(table)
				for _, e := range entries {
					doubled := table
					*e.entry(&doubled) *= 2
					got := r.Energy(doubled)
					want := base
					*e.part(&want) *= 2
					if got != want {
						t.Fatalf("%s/%s/%s: doubling %s gives %+v, want %+v",
							name, li.Layer.Name, dfName, e.name, got, want)
					}
				}
				checked++
			}
		}
	}
	if checked < 970 {
		t.Fatalf("only %d zoo pairs analyzed, want 970", checked)
	}
}

// TestTrafficIndependentOfNoCDelaysProperty pins the invariant that lets
// PriceBatch count one capability class's traffic once and the DSE price
// its bandwidth axis as runtime only: a NoC's Bandwidth and AvgLatency
// set delays, never traffic (§4.2's pipe model). For every zoo layer
// under every Table 3 dataflow on Accel256, and for each combination of
// Multicast and Reduction, configurations that differ only in the
// per-level bandwidths and latencies price to identical activity counts,
// and after AtL2 over an L2 grid to identical DRAM traffic and energy.
func TestTrafficIndependentOfNoCDelaysProperty(t *testing.T) {
	base := hw.Accel256()
	delays := []struct {
		bw0, bw1   float64
		lat0, lat1 int64
	}{{32, 32, 2, 2}, {1, 64, 0, 9}, {256, 3, 17, 1}, {4.5, 4.5, 5, 0}}
	l2Grid := []int64{1, 0, 64 << 10, 1 << 20, 16 << 20} // a spill, the requirement, then headroom
	checked, runtimesDiffer := 0, 0
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			for _, dfName := range dataflows.Names {
				spec, err := dataflow.Resolve(dataflows.Get(dfName), li.Layer, base.NumPEs)
				if err != nil {
					continue
				}
				prof, err := Profile(spec)
				if err != nil {
					continue
				}
				at := name + "/" + li.Layer.Name + "/" + dfName
				for _, caps := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
					var ref *Result
					for _, d := range delays {
						nocs := make([]noc.Model, 2)
						for lv, bw := range []float64{d.bw0, d.bw1} {
							nocs[lv] = noc.Bus(bw)
							nocs[lv].AvgLatency = []int64{d.lat0, d.lat1}[lv]
							nocs[lv].Multicast, nocs[lv].Reduction = caps[0], caps[1]
						}
						cfg := base
						cfg.NoCs = nocs
						r, err := prof.Price(cfg)
						if err != nil {
							t.Fatalf("%s %v: Price: %v", at, caps, err)
						}
						if ref == nil {
							ref = r
							continue
						}
						if r.OnChipRuntime != ref.OnChipRuntime {
							runtimesDiffer++
						}
						if !reflect.DeepEqual(r.BufRead, ref.BufRead) || !reflect.DeepEqual(r.BufWrite, ref.BufWrite) ||
							!reflect.DeepEqual(r.BufReq, ref.BufReq) || !reflect.DeepEqual(r.NoCTraffic, ref.NoCTraffic) ||
							r.MACs != ref.MACs || r.FinalOutputs != ref.FinalOutputs {
							t.Fatalf("%s %v: counts moved with NoC delays %+v\nref: %+v\ngot: %+v", at, caps, d, ref, r)
						}
						for _, l2 := range l2Grid {
							want, got := ref.AtL2(l2), r.AtL2(l2)
							if got.DRAMReads != want.DRAMReads || got.DRAMWrites != want.DRAMWrites ||
								got.DRAMTensorReads != want.DRAMTensorReads {
								t.Fatalf("%s %v L2 %d: DRAM traffic moved with NoC delays %+v", at, caps, l2, d)
							}
							table := energy.TableFor(want.L1ReqBytes(), want.EffectiveL2, base.NumPEs)
							if eg, ew := got.Energy(table), want.Energy(table); eg != ew {
								t.Fatalf("%s %v L2 %d: energy moved with NoC delays %+v: %+v, want %+v",
									at, caps, l2, d, eg, ew)
							}
						}
					}
				}
				checked++
			}
		}
	}
	if checked < 970 {
		t.Fatalf("only %d zoo pairs priced, want 970", checked)
	}
	if runtimesDiffer == 0 {
		t.Fatal("no runtime moved with the NoC delays: the property is vacuous")
	}
}
