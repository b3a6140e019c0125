package reuse

import (
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// fixture resolves a single-level dataflow over a reference layer and
// returns its analysis.
func fixture(t *testing.T, layer tensor.Layer, pes int, dirs ...dataflow.Directive) *Analysis {
	t.Helper()
	spec, err := dataflow.Resolve(dataflow.Dataflow{Name: "fix", Directives: dirs}, layer, pes)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := spec.Level(0, spec.Layer.Sizes)
	if err != nil {
		t.Fatal(err)
	}
	return New(lv, spec.Layer)
}

// newPerPE is NewData's per-sub-cluster amount.
func newPerPE(a *Analysis, k tensor.Kind, li int, ch tensor.Sizes) int64 {
	n, _ := a.NewData(k, li, ch, 1)
	return n
}

func refLayer() tensor.Layer {
	return tensor.Layer{
		Name: "ref", Op: tensor.Conv2D,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 8, tensor.C: 6, tensor.Y: 12, tensor.X: 12, tensor.R: 3, tensor.S: 3},
	}.Normalize()
}

func TestLoopsOrder(t *testing.T) {
	a := fixture(t, refLayer(), 4,
		dataflow.TMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.C),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
	)
	// Nest: K temporal, fold (at the spatial map's position), Y temporal,
	// then implicit single-step loops.
	if len(a.Loops) < 3 {
		t.Fatalf("loops = %d", len(a.Loops))
	}
	if a.Loops[0].IsFold || a.Loops[0].Map.Dim != tensor.K {
		t.Errorf("loop 0 = %+v; want K", a.Loops[0])
	}
	if !a.Loops[1].IsFold {
		t.Errorf("loop 1 not the fold")
	}
	if a.Loops[2].IsFold || a.Loops[2].Map.Dim != tensor.Y {
		t.Errorf("loop 2 = %+v; want Y", a.Loops[2])
	}
}

func TestTileOf(t *testing.T) {
	a := fixture(t, refLayer(), 4,
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.TMap(dataflow.Lit(3), dataflow.Lit(3), tensor.C),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
	)
	ch := a.SteadyChunks()
	// Weight tile: K2 x C3 x R3 x S3.
	if got := a.TileOf(tensor.Weight, ch); got != 2*3*3*3 {
		t.Errorf("weight tile = %d; want 54", got)
	}
	// Input tile: N1 x C3 x Y3 x X3.
	if got := a.TileOf(tensor.Input, ch); got != 3*3*3 {
		t.Errorf("input tile = %d; want 27", got)
	}
	// Output tile: N1 x K2 x 1 x 1.
	if got := a.TileOf(tensor.Output, ch); got != 2 {
		t.Errorf("output tile = %d; want 2", got)
	}
	// Partial sums per pass: K2*C3*1*1*R3*S3.
	if got := a.Psums(ch); got != 2*3*9 {
		t.Errorf("psums = %d; want 54", got)
	}
}

func TestUnionTilePartitioned(t *testing.T) {
	a := fixture(t, refLayer(), 4,
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.TMap(dataflow.Lit(3), dataflow.Lit(3), tensor.C),
	)
	ch := a.SteadyChunks()
	// Weight union across 4 PEs: K axis spans 4*2=8 (full K).
	if got := a.UnionTile(tensor.Weight, ch, 4); got != 8*3*3*3 {
		t.Errorf("weight union = %d; want 216", got)
	}
	// Inputs are identical across PEs (K not coupled): union == tile.
	if got, tile := a.UnionTile(tensor.Input, ch, 4), a.TileOf(tensor.Input, ch); got != tile {
		t.Errorf("input union = %d; want %d", got, tile)
	}
	if a.SpatiallyVaries(tensor.Input) {
		t.Error("input should be multicast under K partitioning")
	}
	if !a.SpatiallyVaries(tensor.Weight) || !a.SpatiallyVaries(tensor.Output) {
		t.Error("weights/outputs should be partitioned under K partitioning")
	}
	if a.OutputReduced() {
		t.Error("K partitioning must not require spatial reduction")
	}
}

func TestUnionTileHalo(t *testing.T) {
	// Spatial Y with halo: size 3, offset 1 over 4 PEs => union 6 rows,
	// not 12.
	a := fixture(t, refLayer(), 4,
		dataflow.SMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
	)
	ch := a.SteadyChunks()
	perPE := a.TileOf(tensor.Input, ch)
	union := a.UnionTile(tensor.Input, ch, 4)
	if union >= 4*perPE {
		t.Errorf("halo union %d not collapsed (4x tile = %d)", union, 4*perPE)
	}
	if want := perPE / 3 * 6; union != want {
		t.Errorf("union = %d; want %d (6 rows)", union, want)
	}
}

func TestOutputReducedEyerissDiagonal(t *testing.T) {
	layer := refLayer()
	spec, err := dataflow.Resolve(dataflow.Dataflow{Name: "rs", Directives: []dataflow.Directive{
		dataflow.SMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Sz(tensor.R), tensor.R),
		dataflow.ClusterOf(dataflow.Sz(tensor.R)),
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.Y),
		dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.R),
	}}, layer, 6)
	if err != nil {
		t.Fatal(err)
	}
	lv0, err := spec.Level(0, layer.Sizes)
	if err != nil {
		t.Fatal(err)
	}
	sub := lv0.SubTile()
	lv1, err := spec.Level(1, sub)
	if err != nil {
		t.Fatal(err)
	}
	a := New(lv1, layer)
	// Co-mapped Y and R cancel: all PEs compute the same output row.
	if a.SpatiallyVaries(tensor.Output) {
		t.Error("diagonal mapping must keep the output tile identical across PEs")
	}
	if !a.OutputReduced() {
		t.Error("diagonal mapping must require spatial reduction")
	}
	// Weights differ per PE (R varies), inputs differ per PE (Y varies).
	if !a.SpatiallyVaries(tensor.Weight) || !a.SpatiallyVaries(tensor.Input) {
		t.Error("weights and inputs vary across the diagonal")
	}
}

func TestNewDataStationarity(t *testing.T) {
	// Nest: K outer, Y inner. Weights are coupled to K, not Y.
	a := fixture(t, refLayer(), 4,
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.C),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
	)
	ch := a.SteadyChunks()
	var yIdx, cIdx int = -1, -1
	for i, lp := range a.Loops {
		if lp.IsFold {
			continue
		}
		switch lp.Map.Dim {
		case tensor.Y:
			yIdx = i
		case tensor.C:
			cIdx = i
		}
	}
	// Advancing Y: weights fully reused (stationary).
	if got := newPerPE(a, tensor.Weight, yIdx, ch); got != 0 {
		t.Errorf("weight refetch on Y advance = %d; want 0", got)
	}
	// Advancing Y: input slides by one row => one new row of X elements.
	if got := newPerPE(a, tensor.Input, yIdx, ch); got != int64(refLayer().Sizes.Get(tensor.X)) {
		t.Errorf("input new on Y advance = %d; want %d", got, refLayer().Sizes.Get(tensor.X))
	}
	// Advancing C (outer to Y): input has multi-step inner coupled dim
	// (Y) => full refetch; weights likewise.
	if got, tile := newPerPE(a, tensor.Input, cIdx, ch), a.TileOf(tensor.Input, ch); got != tile {
		t.Errorf("input new on C advance = %d; want full tile %d", got, tile)
	}
	if got, tile := newPerPE(a, tensor.Weight, cIdx, ch), a.TileOf(tensor.Weight, ch); got != tile {
		t.Errorf("weight new on C advance = %d; want full tile %d", got, tile)
	}
	// First step: everything is new.
	if got, tile := newPerPE(a, tensor.Weight, -1, ch), a.TileOf(tensor.Weight, ch); got != tile {
		t.Errorf("weight first fetch = %d; want %d", got, tile)
	}
}

func TestNewDataOutputStationaryOverReduction(t *testing.T) {
	// Nest: Y,X outer; C,R,S inner => the output tile never moves while
	// reduction dims advance.
	a := fixture(t, refLayer(), 4,
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.TMap(dataflow.Lit(2), dataflow.Lit(2), tensor.C),
	)
	ch := a.SteadyChunks()
	cIdx := -1
	for i, lp := range a.Loops {
		if !lp.IsFold && lp.Map.Dim == tensor.C {
			cIdx = i
		}
	}
	if got := newPerPE(a, tensor.Output, cIdx, ch); got != 0 {
		t.Errorf("output moved on C advance: %d new elements", got)
	}
	if !a.InnerAffecting(tensor.Input, 1) {
		// Y advance with inner multi-step C: input forfeits halo credit.
		ydata := newPerPE(a, tensor.Input, 1, ch)
		if ydata != a.TileOf(tensor.Input, ch) {
			t.Errorf("expected full refetch with inner C loop, got %d", ydata)
		}
	}
}

func TestAffectsFilterTiling(t *testing.T) {
	// R tiled with the full activation staged: the window anchors to the
	// activation chunk, so R advances accumulate taps in place and the
	// output tile does NOT move (the paper's Figure 5(A) semantics).
	a := fixture(t, refLayer(), 4,
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.R),
	)
	rIdx := -1
	for i, lp := range a.Loops {
		if !lp.IsFold && lp.Map.Dim == tensor.R {
			rIdx = i
		}
	}
	if a.Affects(tensor.Output, rIdx) {
		t.Error("anchored window: R advance must not move the output tile")
	}
	if !a.Affects(tensor.Weight, rIdx) {
		t.Error("R map must affect the weight tile")
	}
	if a.Affects(tensor.Input, rIdx) {
		t.Error("R map must not affect the input tile")
	}

	// Diagonal case: the activation chunk is smaller than the window
	// (Y chunk 1 against R=3), so the output shifts with the filter tap.
	d := fixture(t, refLayer(), 4,
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.K),
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.R),
	)
	rIdx = -1
	for i, lp := range d.Loops {
		if !lp.IsFold && lp.Map.Dim == tensor.R {
			rIdx = i
		}
	}
	if !d.Affects(tensor.Output, rIdx) {
		t.Error("diagonal window: R advance must shift the output tile")
	}
}

// Property tests over randomized single-level mappings: tile arithmetic
// must respect containment bounds regardless of chunking.
func TestReuseProperties(t *testing.T) {
	f := func(kSz, cSz, ySz, kTile, spatialSel uint8) bool {
		layer := tensor.Layer{
			Name: "prop", Op: tensor.Conv2D,
			Sizes: tensor.Sizes{
				tensor.N: 1,
				tensor.K: int(kSz%8) + 1,
				tensor.C: int(cSz%8) + 1,
				tensor.Y: int(ySz%10) + 3,
				tensor.X: int(ySz%10) + 3,
				tensor.R: 3, tensor.S: 3,
			},
		}.Normalize()
		kt := int(kTile)%layer.Sizes.Get(tensor.K) + 1
		spatialDim := []tensor.Dim{tensor.K, tensor.C}[spatialSel%2]
		dirs := []dataflow.Directive{
			dataflow.TMap(dataflow.Lit(kt), dataflow.Lit(kt), tensor.K),
			dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
			dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		}
		if spatialDim == tensor.K {
			dirs[0] = dataflow.SMap(dataflow.Lit(kt), dataflow.Lit(kt), tensor.K)
		} else {
			dirs = append(dirs, dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), tensor.C))
		}
		spec, err := dataflow.Resolve(dataflow.Dataflow{Name: "p", Directives: dirs}, layer, 4)
		if err != nil {
			return true
		}
		lv, err := spec.Level(0, layer.Sizes)
		if err != nil {
			return true
		}
		a := New(lv, layer)
		ch := a.SteadyChunks()
		for _, k := range tensor.AllKinds() {
			tile := a.TileOf(k, ch)
			union := a.UnionTile(k, ch, lv.SubClusters)
			// Union is at least one tile and at most active tiles / the
			// whole tensor footprint.
			if union < tile || union > tile*int64(lv.SubClusters) {
				return false
			}
			if union > layer.TensorSize(k) && !a.SpatiallyVaries(k) {
				return false
			}
			// New data on any advance never exceeds the tile, per
			// sub-cluster or across them.
			for li := range a.Loops {
				nd, ndUnion := a.NewData(k, li, ch, lv.SubClusters)
				if nd < 0 || nd > tile || ndUnion < 0 || ndUnion > union {
					return false
				}
			}
			if first := newPerPE(a, k, -1, ch); first != tile {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
