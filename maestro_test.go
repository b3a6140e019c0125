package maestro_test

import (
	"math"
	"math/rand"
	"testing"

	maestro "repro"
)

// randLayer draws a small random convolution.
func randLayer(rng *rand.Rand) maestro.Layer {
	r := 1 + rng.Intn(3)      // 1..3
	stride := 1 + rng.Intn(2) // 1..2
	out := 2 + rng.Intn(9)    // 2..10 outputs per axis
	in := (out-1)*stride + r
	return maestro.Layer{
		Name: "rand", Op: maestro.OpConv2D,
		Sizes: maestro.Sizes{
			maestro.N: 1 + rng.Intn(2),
			maestro.K: 1 + rng.Intn(8),
			maestro.C: 1 + rng.Intn(8),
			maestro.Y: in, maestro.X: in,
			maestro.R: r, maestro.S: r,
		},
		StrideY: stride, StrideX: stride,
	}.Normalize()
}

// randDataflow draws a random mapping for the layer: a shuffled nest of
// tiled temporal maps with one spatially mapped dimension, optionally
// split into two cluster levels.
func randDataflow(rng *rand.Rand, layer maestro.Layer) maestro.Dataflow {
	type dimPlan struct {
		d            maestro.Dim
		size, offset int
	}
	var plans []dimPlan
	for _, d := range []maestro.Dim{maestro.N, maestro.K, maestro.C} {
		sz := layer.Sizes.Get(d)
		s := 1 + rng.Intn(sz)
		plans = append(plans, dimPlan{d, s, s})
	}
	// Filter dims: occasionally tiled (the anchored-window case); the
	// activation chunks below always host a full window.
	for _, d := range []maestro.Dim{maestro.R, maestro.S} {
		if rng.Intn(3) == 0 {
			sz := layer.Sizes.Get(d)
			t := 1 + rng.Intn(sz)
			plans = append(plans, dimPlan{d, t, t})
		}
	}
	// Sliding dims: size >= window, offset a stride multiple that leaves
	// no output gaps (offset <= size - window + stride).
	for _, d := range []maestro.Dim{maestro.Y, maestro.X} {
		win := layer.Sizes.Get(maestro.R)
		stride := layer.StrideY
		if d == maestro.X {
			win = layer.Sizes.Get(maestro.S)
			stride = layer.StrideX
		}
		sz := layer.Sizes.Get(d)
		// Candidate sizes covering whole output strides.
		nOut := 1 + rng.Intn(3)
		s := (nOut-1)*stride + win
		if s > sz {
			s = sz
		}
		off := nOut * stride
		plans = append(plans, dimPlan{d, s, off})
	}
	rng.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })

	spatial := rng.Intn(len(plans))
	var dirs []maestro.Directive
	for i, p := range plans {
		if i == spatial {
			dirs = append(dirs, maestro.SMap(maestro.Lit(p.size), maestro.Lit(p.offset), p.d))
		} else {
			dirs = append(dirs, maestro.TMap(maestro.Lit(p.size), maestro.Lit(p.offset), p.d))
		}
	}
	// Optionally add an inner cluster level parallelizing a different dim.
	if rng.Intn(2) == 0 {
		inner := plans[(spatial+1)%len(plans)]
		dirs = append(dirs, maestro.ClusterOf(maestro.Lit(2)),
			maestro.SMap(maestro.Lit(1), maestro.Lit(1), inner.d))
	}
	return maestro.Dataflow{Name: "rand", Directives: dirs}
}

// TestRandomDataflowConservation is the repository's fuzz-style
// correctness test: any mapping the resolver accepts must compute exactly
// the algorithmic MACs and commit the output tensor exactly once.
func TestRandomDataflowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := maestro.HWConfig{NumPEs: 8, NoCs: []maestro.NoCModel{maestro.Tree(8)}}.Normalize()
	accepted, rejected := 0, 0
	for i := 0; i < 400; i++ {
		layer := randLayer(rng)
		df := randDataflow(rng, layer)
		spec, err := maestro.Resolve(df, layer, cfg.NumPEs)
		if err != nil {
			rejected++
			continue
		}
		r, err := maestro.AnalyzeSpec(spec, cfg)
		if err != nil {
			rejected++
			continue
		}
		accepted++
		// Overlapping output responsibility (redundant compute) is legal
		// but must never under-compute.
		if r.MACs < layer.MACs() {
			t.Fatalf("case %d: computed %d < algorithmic %d\nlayer %v\n%s",
				i, r.MACs, layer.MACs(), layer.Sizes, df)
		}
		if r.MACs == layer.MACs() {
			if err := r.CheckConservation(); err != nil {
				t.Fatalf("case %d: %v\nlayer %v\n%s", i, err, layer.Sizes, df)
			}
		}
		if r.Runtime <= 0 {
			t.Fatalf("case %d: runtime %d", i, r.Runtime)
		}
		if u := r.Utilization(); u < 0 || u > 1.000001 {
			t.Fatalf("case %d: utilization %v\nlayer %v\n%s", i, u, layer.Sizes, df)
		}
	}
	if accepted < 100 {
		t.Fatalf("generator too weak: only %d accepted (%d rejected)", accepted, rejected)
	}
	t.Logf("random mappings: %d accepted, %d rejected by the resolver", accepted, rejected)
}

// TestRandomDataflowMatchesSimulator cross-validates the analytical model
// against the step-accurate simulator on random mappings (Figure 9
// methodology, randomized).
func TestRandomDataflowMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := maestro.HWConfig{NumPEs: 8, NoCs: []maestro.NoCModel{maestro.Tree(8)}}.Normalize()
	checked := 0
	var worst float64
	for i := 0; i < 120 && checked < 40; i++ {
		layer := randLayer(rng)
		df := randDataflow(rng, layer)
		spec, err := maestro.Resolve(df, layer, cfg.NumPEs)
		if err != nil {
			continue
		}
		ana, err := maestro.AnalyzeSpec(spec, cfg)
		if err != nil || ana.MACs != layer.MACs() {
			continue // exact mappings only; redundant-compute cases differ by design
		}
		simr, err := maestro.Simulate(spec, cfg)
		if err != nil {
			t.Fatalf("case %d: sim: %v\n%s", i, err, df)
		}
		if simr.MACs != ana.MACs {
			t.Fatalf("case %d: MACs sim %d vs analytical %d\nlayer %v\n%s",
				i, simr.MACs, ana.MACs, layer.Sizes, df)
		}
		relErr := math.Abs(float64(ana.OnChipRuntime)-float64(simr.Cycles)) / float64(simr.Cycles)
		if relErr > worst {
			worst = relErr
		}
		if relErr > 0.30 {
			t.Errorf("case %d: runtime analytical %d vs sim %d (%.1f%%)\nlayer %v\n%s",
				i, ana.OnChipRuntime, simr.Cycles, 100*relErr, layer.Sizes, df)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d cases cross-checked", checked)
	}
	t.Logf("%d random mappings cross-checked; worst runtime error %.2f%%", checked, 100*worst)
}

// TestPublicAPIWorkflow exercises the documented quick-start path.
func TestPublicAPIWorkflow(t *testing.T) {
	layer := maestro.Conv2D("conv3x3", 64, 64, 56, 3, 1)
	df := maestro.DataflowByName("KC-P")
	r, err := maestro.Analyze(df, layer, maestro.Accel256())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if r.String() == "" {
		t.Fatal("empty report")
	}
	// Tuner path.
	ch, err := maestro.TuneLayer(layer, maestro.Accel256(), maestro.TunerOptions{Objective: maestro.MinRuntime})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Result.Runtime > r.Runtime {
		t.Errorf("tuner (%d) worse than fixed KC-P (%d)", ch.Result.Runtime, r.Runtime)
	}
	// DSL path.
	net, err := maestro.ParseNetwork(`Network n { Layer L {
		Type: CONV2D
		Dimensions { N:1, K:8, C:8, Y:10, X:10, R:3, S:3 }
		Dataflow { SpatialMap(1,1) K; TemporalMap(Sz(R),1) Y; TemporalMap(Sz(S),1) X; }
	} }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := maestro.Analyze(net.Layers[0].Dataflow, net.Layers[0].Layer, maestro.Accel256()); err != nil {
		t.Fatal(err)
	}
}

// TestWithL2Retention checks the DRAM retention model: growing L2 from
// the staging requirement to the working set must cut DRAM traffic to
// compulsory, and shrinking it below the requirement must spill.
func TestWithL2Retention(t *testing.T) {
	layer := maestro.Conv2D("conv", 64, 64, 28, 3, 1)
	r, err := maestro.Analyze(maestro.DataflowByName("KC-P"), layer, maestro.Accel256())
	if err != nil {
		t.Fatal(err)
	}
	small := r.WithL2(r.L2ReqBytes())
	big := r.WithL2(64 << 20)
	if big.DRAMReads > small.DRAMReads {
		t.Errorf("bigger L2 increased DRAM reads: %d vs %d", big.DRAMReads, small.DRAMReads)
	}
	compulsory := layer.TensorSize(maestro.Input) + layer.TensorSize(maestro.Weight)
	if big.DRAMReads != compulsory {
		t.Errorf("retained working set should cost compulsory %d reads, got %d", compulsory, big.DRAMReads)
	}
	spilled := r.WithL2(16)
	if !spilled.L2Spill {
		t.Error("sub-requirement L2 must spill")
	}
	if spilled.DRAMReads < big.DRAMReads {
		t.Error("spilling should never reduce DRAM traffic")
	}
}

// TestDataflowAccessorsCopy checks that the root package's Table 3
// accessors hand out copies: editing one, down to a size term, leaves
// the next caller's dataflow as parsed.
func TestDataflowAccessorsCopy(t *testing.T) {
	for i, df := range maestro.AllDataflows() {
		want := maestro.DataflowByName(df.Name).String()
		for _, d := range df.Directives {
			for j := range d.Size.Terms {
				d.Size.Terms[j].Coef = 7
			}
		}
		df.Directives[len(df.Directives)-1] = maestro.Directive{IsCluster: true}
		got := maestro.DataflowByName(df.Name)
		got.Directives[0].Size.Const += 3
		if s := maestro.DataflowByName(df.Name).String(); s != want {
			t.Errorf("%s changed after editing copies:\n%s\nwant\n%s", df.Name, s, want)
		}
		if s := maestro.AllDataflows()[i].String(); s != want {
			t.Errorf("AllDataflows %s changed after editing copies:\n%s\nwant\n%s", df.Name, s, want)
		}
	}
}
