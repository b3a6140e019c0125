package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/tensor"
)

// equivLayers picks model-zoo layers covering the operator taxonomy
// (early/late conv, depthwise, pointwise, fully-connected) plus a sparse
// variant, small enough for a full matrix sweep.
func equivLayers(t *testing.T) []tensor.Layer {
	t.Helper()
	pick := func(m models.Model, name string) tensor.Layer {
		li, ok := m.Find(name)
		if !ok {
			t.Fatalf("layer %s not found in %s", name, m.Name)
		}
		return li.Layer
	}
	resnet := models.ResNet50()
	mobile := models.MobileNetV2()
	vgg := models.VGG16()
	layers := []tensor.Layer{
		pick(resnet, "CONV1"),
		pick(vgg, "CONV13"),
		pick(mobile, "B1_dw"),
		pick(mobile, "B1_pw"),
		pick(resnet, "FC1000"),
	}
	sparse := pick(vgg, "CONV13")
	sparse.Name = "CONV13_sparse"
	sparse.Density[tensor.Input] = 0.45
	sparse.Density[tensor.Weight] = 0.6
	layers = append(layers, sparse.Normalize())
	return layers
}

// equivConfigs sweeps the hardware axes Price must react to: NoC
// bandwidth, vector width, sparsity-imbalance pricing, and the NoC
// capability flags (multicast, in-network reduction, channels) across
// bus/tree/mesh topologies.
func equivConfigs(pes int) []hw.Config {
	var cfgs []hw.Config
	for _, bw := range []float64{2, 8, 32} {
		for _, vw := range []int{1, 4} {
			for _, sp := range []bool{false, true} {
				m := noc.Bus(bw)
				m.Reduction = true
				cfgs = append(cfgs, hw.Config{
					Name: "bus", NumPEs: pes, VectorWidth: vw,
					SparseImbalance: sp, NoCs: []noc.Model{m},
				}.Normalize())
			}
		}
	}
	noRed := noc.Bus(8) // partials travel up and rmw-accumulate in the parent
	cfgs = append(cfgs, hw.Config{Name: "bus-nored", NumPEs: pes, NoCs: []noc.Model{noRed}}.Normalize())
	multi := noc.Bus(8)
	multi.Channels = 3
	multi.Reduction = true
	cfgs = append(cfgs, hw.Config{Name: "bus-ch3", NumPEs: pes, NoCs: []noc.Model{multi}}.Normalize())
	tree := noc.Tree(pes)
	cfgs = append(cfgs, hw.Config{Name: "tree", NumPEs: pes, NoCs: []noc.Model{tree}}.Normalize())
	mesh := noc.Mesh(pes)
	cfgs = append(cfgs, hw.Config{Name: "mesh", NumPEs: pes, NoCs: []noc.Model{mesh}}.Normalize())
	return cfgs
}

// classConfigs interleaves NoC capability classes — reduction on and
// off, multicast off, and two-level NoCs that differ only below the top
// level — with bandwidths and latencies that vary inside each class. A
// batch over it has lanes that share their class's counts and lanes
// that do not, in a fixed order.
func classConfigs(pes int) []hw.Config {
	bus := func(bw float64, lat int64, multicast, reduction bool) noc.Model {
		m := noc.Bus(bw)
		m.AvgLatency, m.Multicast, m.Reduction = lat, multicast, reduction
		return m
	}
	var cfgs []hw.Config
	for i, bw := range []float64{2, 8, 32} {
		lat := int64(1 + 3*i)
		for _, nocs := range [][]noc.Model{
			{bus(bw, lat, true, true)},
			{bus(bw, lat, true, false)},
			{bus(bw, lat, false, true)},
			{bus(bw, lat, false, false)},
			{bus(bw, lat, true, true), bus(2*bw, 1, true, false)},
			{bus(bw, lat, true, true), bus(bw/2, lat, false, true)},
		} {
			cfgs = append(cfgs, hw.Config{
				Name: fmt.Sprintf("caps%d", len(cfgs)), NumPEs: pes, NoCs: nocs,
			}.Normalize())
		}
	}
	return cfgs
}

// TestPriceEquivalence asserts Price(Profile(spec), cfg) and
// Analyze(spec, cfg) reproduce the fused oracle walk field for field
// over the Table 3 dataflows × model-zoo layers × hardware matrix.
func TestPriceEquivalence(t *testing.T) {
	const pes = 64
	layers := equivLayers(t)
	cfgs := equivConfigs(pes)
	compared := 0
	for _, df := range dataflows.All() {
		for _, layer := range layers {
			spec, err := dataflow.Resolve(df, layer, pes)
			if err != nil {
				continue // mapping not applicable to this shape; Analyze would fail identically
			}
			prof, err := Profile(spec)
			if err != nil {
				t.Fatalf("%s/%s: Profile: %v", df.Name, layer.Name, err)
			}
			for _, cfg := range cfgs {
				want, errO := oracleAnalyze(spec, cfg)
				got, errP := prof.Price(cfg)
				if (errO == nil) != (errP == nil) {
					t.Fatalf("%s/%s/%s: error mismatch: oracle=%v price=%v",
						df.Name, layer.Name, cfg.Name, errO, errP)
				}
				if errO != nil {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s/%s: Price result differs from the oracle\noracle: %+v\nprice:  %+v",
						df.Name, layer.Name, cfg.Name, want, got)
				}
				if one, err := Analyze(spec, cfg); err != nil || !reflect.DeepEqual(want, one) {
					t.Fatalf("%s/%s/%s: Analyze differs from the oracle (err=%v)\noracle:  %+v\nanalyze: %+v",
						df.Name, layer.Name, cfg.Name, err, want, one)
				}
				compared++
			}
		}
	}
	if compared < 200 {
		t.Fatalf("equivalence matrix too sparse: only %d comparisons ran", compared)
	}
}

// TestPriceBatchEquivalence asserts PriceBatch(p, cfgs)[i] is
// bit-identical to the sequential Price(p, cfgs[i]) over the same
// dataflow × layer × hardware matrix as TestPriceEquivalence, and over
// classConfigs' interleaved capability classes, and pins the two edge
// shapes of the contract: a single-config batch equals a plain Price,
// and an empty batch returns an empty non-nil slice with a nil error.
func TestPriceBatchEquivalence(t *testing.T) {
	const pes = 64
	layers := equivLayers(t)
	compared := 0
	for _, cfgs := range [][]hw.Config{equivConfigs(pes), classConfigs(pes)} {
		for _, df := range dataflows.All() {
			for _, layer := range layers {
				spec, err := dataflow.Resolve(df, layer, pes)
				if err != nil {
					continue
				}
				prof, err := Profile(spec)
				if err != nil {
					t.Fatalf("%s/%s: Profile: %v", df.Name, layer.Name, err)
				}
				want := make([]*Result, len(cfgs))
				for i, cfg := range cfgs {
					if want[i], err = prof.Price(cfg); err != nil {
						t.Fatalf("%s/%s/%s: Price: %v", df.Name, layer.Name, cfg.Name, err)
					}
				}
				got, err := prof.PriceBatch(cfgs)
				if err != nil {
					t.Fatalf("%s/%s: PriceBatch: %v", df.Name, layer.Name, err)
				}
				if len(got) != len(cfgs) {
					t.Fatalf("%s/%s: PriceBatch returned %d results for %d configs",
						df.Name, layer.Name, len(got), len(cfgs))
				}
				for i := range cfgs {
					if !reflect.DeepEqual(want[i], got[i]) {
						t.Fatalf("%s/%s/%s: batch result differs from sequential Price\nprice: %+v\nbatch: %+v",
							df.Name, layer.Name, cfgs[i].Name, want[i], got[i])
					}
					compared++
				}

				one, err := prof.PriceBatch(cfgs[:1])
				if err != nil || len(one) != 1 || !reflect.DeepEqual(want[0], one[0]) {
					t.Fatalf("%s/%s: single-config batch diverged (err=%v)", df.Name, layer.Name, err)
				}
				empty, err := prof.PriceBatch(nil)
				if err != nil || empty == nil || len(empty) != 0 {
					t.Fatalf("%s/%s: empty batch: got (%v, %v), want (non-nil empty, nil)",
						df.Name, layer.Name, empty, err)
				}
			}
		}
	}
	if compared < 200 {
		t.Fatalf("batch equivalence matrix too sparse: only %d comparisons ran", compared)
	}
}

// TestPriceBatchResultsOwnTables pins the ownership half of the batch
// contract: lanes that take a copy of their class representative's
// counts still own every table, so clearing one result's tables leaves
// each other result as priced.
func TestPriceBatchResultsOwnTables(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := classConfigs(pes)
	rs, err := prof.PriceBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := prof.PriceBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		clear(r.BufRead)
		clear(r.BufWrite)
		clear(r.BufReq)
		clear(r.NoCTraffic)
		clear(r.PeakBW)
		for j := i + 1; j < len(rs); j++ {
			if !reflect.DeepEqual(rs[j], want[j]) {
				t.Fatalf("clearing result %d (%s) changed result %d (%s)", i, cfgs[i].Name, j, cfgs[j].Name)
			}
		}
	}
}

// TestPriceBatchMixedValidity pins the error contract: an invalid
// configuration fails only its own slot — results[i] is nil exactly for
// the failed indices, the joined error unwraps to hw.ErrInvalidConfig
// and names the failing index, and every valid slot stays bit-identical
// to what an all-valid batch produces.
func TestPriceBatchMixedValidity(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	valid := equivConfigs(pes)[:3]
	mismatch := testHW(pes * 2) // wrong PE count for this profile
	cfgs := []hw.Config{valid[0], mismatch, valid[1], mismatch, valid[2]}
	badIdx := map[int]bool{1: true, 3: true}

	rs, err := prof.PriceBatch(cfgs)
	if err == nil {
		t.Fatal("want an error for the invalid lanes, got nil")
	}
	if !errors.Is(err, hw.ErrInvalidConfig) {
		t.Fatalf("joined error does not unwrap to hw.ErrInvalidConfig: %v", err)
	}
	if !strings.Contains(err.Error(), "config 1") || !strings.Contains(err.Error(), "config 3") {
		t.Fatalf("error does not name the failing indices: %v", err)
	}
	for i := range cfgs {
		if badIdx[i] != (rs[i] == nil) {
			t.Fatalf("slot %d: nil=%v, want nil only for invalid lanes", i, rs[i] == nil)
		}
	}
	for i, cfg := range cfgs {
		if badIdx[i] {
			continue
		}
		want, err := prof.Price(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, rs[i]) {
			t.Fatalf("slot %d: invalid neighbors poisoned a valid result", i)
		}
	}
}

// TestPriceBatchAllocs guards the zero-allocs-per-point property: the
// allocation count of a PriceBatch call is independent of the batch
// size (the fixed cost is the escaping Result arena; per-point scratch
// comes from the pool), and the fixed cost itself stays small.
func TestPriceBatchAllocs(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []hw.Config
	for _, bw := range []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256} {
		m := noc.Bus(bw)
		m.Reduction = true
		cfgs = append(cfgs, hw.Config{Name: "alloc", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize())
	}
	allocsFor := func(n int) float64 {
		sub := cfgs[:n]
		return testing.AllocsPerRun(50, func() {
			if _, err := prof.PriceBatch(sub); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsFor(2), allocsFor(16)
	if perPoint := (large - small) / 14; perPoint > 1.0 {
		t.Errorf("marginal allocations per point = %.2f (batch2=%v, batch16=%v), want ~0",
			perPoint, small, large)
	}
	// The fixed cost is the results slice plus the four Result-arena
	// backings; leave headroom of one slice header per table.
	if large > 9+16 { // 16 = one *Result per point in the returned slice
		t.Errorf("fixed batch cost too high: %v allocs for 16 points", large)
	}
}

// TestPriceBatchSharedProfileConcurrent batch-prices one shared profile
// from many goroutines; with -race this proves the sealed arena is
// read-only under concurrent PriceBatch and that pooled scratch never
// leaks across calls.
func TestPriceBatchSharedProfileConcurrent(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := equivConfigs(pes)
	want, err := prof.PriceBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				// Rotate the batch split per goroutine so pool reuse
				// interleaves differently sized scratch buffers.
				cut := (w*3+rep)%(len(cfgs)-1) + 1
				for _, part := range [][]hw.Config{cfgs[:cut], cfgs[cut:]} {
					off := 0
					if &part[0] != &cfgs[0] {
						off = cut
					}
					got, err := prof.PriceBatch(part)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					for i := range got {
						if !reflect.DeepEqual(want[off+i], got[i]) {
							t.Errorf("cfg %s: concurrent PriceBatch diverged", part[i].Name)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPriceRejectsPEMismatch checks Price reproduces Analyze's guard
// against a configuration with a different PE count.
func TestPriceRejectsPEMismatch(t *testing.T) {
	spec, err := dataflow.Resolve(outputStationary(), smallConv(), 4)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Price(testHW(8)); !errors.Is(err, hw.ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig for PE mismatch, got %v", err)
	}
}

// TestProfileConcurrent walks many specs from many goroutines at once;
// with -race this proves a pooled profiler's recording never leaks into
// another walk: every profile equals the one a lone walk builds.
func TestProfileConcurrent(t *testing.T) {
	const pes = 64
	var specs []*dataflow.Spec
	var want []*LayerProfile
	for _, df := range dataflows.All() {
		for _, layer := range equivLayers(t) {
			spec, err := dataflow.Resolve(df, layer, pes)
			if err != nil {
				continue
			}
			prof, err := Profile(spec)
			if err != nil {
				t.Fatal(err)
			}
			specs, want = append(specs, spec), append(want, prof)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range specs {
				j := (i + w) % len(specs) // goroutines walk in different orders
				got, err := Profile(specs[j])
				if err != nil {
					t.Errorf("profile: %v", err)
					return
				}
				if !reflect.DeepEqual(want[j], got) {
					t.Errorf("%s/%s: concurrent Profile differs from a lone walk",
						specs[j].Dataflow.Name, specs[j].Layer.Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPriceSharedProfileConcurrent prices one shared profile from many
// goroutines under different configs; run with -race this catches any
// mutation of the recorded DAG (the leaf counts are shared read-only).
func TestPriceSharedProfileConcurrent(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := equivConfigs(pes)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = prof.Price(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, cfg := range cfgs {
				got, err := prof.Price(cfg)
				if err != nil {
					t.Errorf("price: %v", err)
					return
				}
				if !reflect.DeepEqual(want[i], got) {
					t.Errorf("cfg %s: concurrent Price diverged", cfg.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// keyInput is one (dataflow, layer, numPEs) triple of the keying tests.
type keyInput struct {
	df    dataflow.Dataflow
	layer tensor.Layer
	pes   int
}

func (in keyInput) key() ProfileKey { return ProfileKeyFor(in.df, in.layer, in.pes) }

// kcpBuilder spells Table 3's KC-P with the directive builders.
func kcpBuilder() dataflow.Dataflow {
	lit, sz := dataflow.Lit, dataflow.Sz
	return dataflow.Dataflow{Name: "KC-P", Directives: []dataflow.Directive{
		dataflow.SMap(lit(1), lit(1), tensor.K),
		dataflow.TMap(lit(64), lit(64), tensor.C),
		dataflow.TMap(sz(tensor.R), sz(tensor.R), tensor.R),
		dataflow.TMap(sz(tensor.S), sz(tensor.S), tensor.S),
		dataflow.TMap(sz(tensor.R), lit(1), tensor.Y),
		dataflow.TMap(sz(tensor.S), lit(1), tensor.X),
		dataflow.ClusterOf(lit(64)),
		dataflow.SMap(lit(1), lit(1), tensor.C),
	}}
}

// TestProfileCacheKeying pins the profile identity. Every spelling of
// one (dataflow, layer, numPEs) triple — the builder, the DSL, the
// Augment form, an implicit map written out — shares one key, and a
// change to any input Profile reads gives a key of its own. The
// hardware beyond the PE count is not an input.
func TestProfileCacheKeying(t *testing.T) {
	const pes = 256
	layer := models.VGG16().Layers[10].Layer
	base := func() keyInput { return keyInput{kcpBuilder(), layer, pes} }

	augmented := dataflow.Augment(kcpBuilder(), layer)
	reparsed, err := dataflow.ParseDataflow("KC-P", augmented.String())
	if err != nil {
		t.Fatal(err)
	}
	// outputStationary leaves N to Augment, which appends the implicit
	// TemporalMap(1,1) N after the level's explicit maps.
	implicit := keyInput{outputStationary(), smallConv(), 4}
	explicit := implicit
	explicit.df.Directives = append(slices.Clone(implicit.df.Directives),
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.N))
	for _, tc := range []struct {
		name string
		a, b keyInput
	}{
		{"DSL and builder", keyInput{dataflows.Get("KC-P"), layer, pes}, base()},
		{"Augment form", keyInput{augmented, layer, pes}, base()},
		{"Augment form through the DSL", keyInput{reparsed, layer, pes}, base()},
		{"implicit map written out", explicit, implicit},
	} {
		if tc.a.key() != tc.b.key() {
			t.Errorf("%s: spellings of one mapping got distinct keys", tc.name)
		}
	}

	type mutation struct {
		name string
		edit func(*keyInput)
	}
	muts := []mutation{
		{"PEs", func(in *keyInput) { in.pes = 128 }},
		{"layer name", func(in *keyInput) { in.layer.Name = "other" }},
		{"operator", func(in *keyInput) { in.layer.Op = tensor.PointwiseConv }},
		{"stride Y", func(in *keyInput) { in.layer.StrideY = 2 }},
		{"stride X", func(in *keyInput) { in.layer.StrideX = 2 }},
		{"dataflow name", func(in *keyInput) { in.df.Name = "KC-P2" }},
		{"map kind", func(in *keyInput) { in.df.Directives[1].Kind = dataflow.Spatial }},
		{"map dimension", func(in *keyInput) { in.df.Directives[1].Dim = tensor.N }},
		{"size constant", func(in *keyInput) { in.df.Directives[1].Size = dataflow.Lit(32) }},
		{"size term", func(in *keyInput) { in.df.Directives[2].Size = dataflow.Sz(tensor.S) }},
		{"size coefficient", func(in *keyInput) {
			in.df.Directives[2].Size = dataflow.SizeExpr{Terms: []dataflow.SizeTerm{{Dim: tensor.R, Coef: 2}}}
		}},
		{"offset constant", func(in *keyInput) { in.df.Directives[4].Offset = dataflow.Lit(2) }},
		{"offset term", func(in *keyInput) { in.df.Directives[4].Offset = dataflow.Sz(tensor.R) }},
		{"cluster size", func(in *keyInput) { in.df.Directives[6].Size = dataflow.Lit(32) }},
		{"directive order", func(in *keyInput) {
			d := in.df.Directives
			d[4], d[5] = d[5], d[4]
		}},
	}
	for _, d := range tensor.AllDims() {
		muts = append(muts, mutation{"size " + d.String(), func(in *keyInput) {
			in.layer.Sizes = in.layer.Sizes.Set(d, in.layer.Sizes.Get(d)+1)
		}})
	}
	for _, k := range tensor.AllKinds() {
		muts = append(muts, mutation{"density " + k.String(), func(in *keyInput) { in.layer.Density[k] = 0.5 }})
	}
	seen := map[ProfileKey]string{base().key(): "base"}
	for _, m := range muts {
		in := base()
		m.edit(&in)
		k := in.key()
		if prev, dup := seen[k]; dup {
			t.Errorf("changing the %s gives the key of %s", m.name, prev)
		}
		seen[k] = m.name
	}

	// The cache is keyed by exactly this identity: a second spelling of
	// a profiled triple is a hit.
	cache := NewProfileCache(64)
	for _, df := range []dataflow.Dataflow{implicit.df, explicit.df} {
		if _, _, err := cache.ProfileDataflow(df, implicit.layer, implicit.pes); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Fatalf("two spellings of one triple: hits=%d misses=%d, want 1 and 1", cache.Hits(), cache.Misses())
	}
}

// BenchmarkProfileKey measures one profile-cache key: the canonical
// encoding of a Table 3 dataflow, a zoo layer and the PE count, hashed
// with SHA-256. Every ProfileCache lookup pays it, hit or miss.
func BenchmarkProfileKey(b *testing.B) {
	layer := models.VGG16().Layers[10].Layer
	df := dataflows.Get("KC-P")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProfileKeyFor(df, layer, 256)
	}
}

// BenchmarkPriceBatch measures batch pricing across batch sizes: the
// ns/op of an n-point batch divided by n is the per-design cost, and
// the reported allocs/op should not grow with n (the fixed cost is the
// escaping Result arena; per-point scratch is pooled).
func BenchmarkPriceBatch(b *testing.B) {
	const pes = 256
	layer := models.VGG16().Layers[10].Layer
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), layer, pes)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []hw.Config
	for _, bw := range []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192} {
		m := noc.Bus(bw)
		m.Reduction = true
		cfgs = append(cfgs, hw.Config{Name: "bench", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize())
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("points%d", n), func(b *testing.B) {
			sub := cfgs[:n]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prof.PriceBatch(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileVsAnalyze measures the one-shot Analyze (Profile then
// a batch-of-one Price) and each phase alone: Profile (the expensive
// walk, paid once per mapping) and Price (the cheap per-hardware-point
// pricing, paid per configuration).
func BenchmarkProfileVsAnalyze(b *testing.B) {
	const pes = 256
	layer := models.VGG16().Layers[10].Layer
	df := dataflows.Get("KC-P")
	spec, err := dataflow.Resolve(df, layer, pes)
	if err != nil {
		b.Fatal(err)
	}
	m := noc.Bus(16)
	m.Reduction = true
	cfg := hw.Config{Name: "bench", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize()

	b.Run("Analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Analyze(spec, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Profile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Profile(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	prof, err := Profile(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Price", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prof.Price(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
