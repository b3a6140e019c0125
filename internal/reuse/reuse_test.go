package reuse

import (
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
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

// The reference queries below scan Level.Maps and read the Layer for
// every call, as the engine did before New precomputed its tables:
// refChunks rebuilds the chunk sizes map by map, refAxes looks each
// dimension's map up by a linear scan, and refNewData recomputes
// Affects and InnerAffecting from the layer's tensor dims. They share
// none of the tables, so TestQueriesMatchReference checks the tables
// against the code they replaced.

func refChunks(a *Analysis, edges []bool, spatialEdge bool) tensor.Sizes {
	var ch tensor.Sizes
	for i := range a.Level.Maps {
		m := &a.Level.Maps[i]
		sz := m.Size
		if m.Kind == dataflow.Spatial && spatialEdge {
			sz = m.EdgeSize
		}
		ch = ch.Set(m.Dim, sz)
	}
	for li, lp := range a.Loops {
		if !lp.IsFold && li < len(edges) && edges[li] {
			ch = ch.Set(lp.Map.Dim, lp.Map.EdgeSize)
		}
	}
	return ch
}

func refAxes(a *Analysis, k tensor.Kind, ch tensor.Sizes, active int) []axis {
	direct := func(d tensor.Dim) axis {
		c := int64(ch.Get(d))
		u := c
		if a.Level.IsSpatial(d) {
			m := a.Level.Map(d)
			uu := (active-1)*m.Offset + ch.Get(d)
			if uu > m.DimSize {
				uu = m.DimSize
			}
			u = int64(uu)
		}
		return axis{perPE: c, union: u, dims: tensor.NewDimSet(d)}
	}
	outAxis := func(act, filt tensor.Dim, stride, shift int, anchored bool) axis {
		full := a.Level.Map(filt).DimSize
		win := tensor.EffectiveWindow(ch.Get(act), ch.Get(filt), full)
		o := int64(tensor.OutSpan(ch.Get(act), win, stride))
		u := o
		if shift != 0 {
			u = int64(active-1)*int64(shift) + o
			limWin := tensor.EffectiveWindow(a.Level.Dims.Get(act), ch.Get(filt), full)
			lim := int64(tensor.OutSpan(a.Level.Dims.Get(act), limWin, stride))
			if u > lim && lim > 0 {
				u = lim
			}
		}
		dims := tensor.NewDimSet(act, filt)
		if anchored {
			dims = tensor.NewDimSet(act)
		}
		return axis{perPE: o, union: u, dims: dims}
	}
	var axs []axis
	switch k {
	case tensor.Weight:
		axs = append(axs, direct(tensor.C), direct(tensor.R), direct(tensor.S))
		if a.Layer.TensorDims(tensor.Weight).Has(tensor.K) {
			axs = append(axs, direct(tensor.K))
		}
	case tensor.Input:
		axs = append(axs, direct(tensor.N), direct(tensor.C), direct(tensor.Y), direct(tensor.X))
	case tensor.Output:
		axs = append(axs, direct(tensor.N),
			outAxis(tensor.Y, tensor.R, a.Layer.StrideY, a.outShiftY, a.anchoredY),
			outAxis(tensor.X, tensor.S, a.Layer.StrideX, a.outShiftX, a.anchoredX))
		if a.Layer.TensorDims(tensor.Output).Has(tensor.K) {
			axs = append(axs, direct(tensor.K))
		} else {
			axs = append(axs, direct(tensor.C))
		}
	}
	return axs
}

// refTiles multiplies the reference axes: the per-sub-cluster tile and
// the union across active sub-clusters.
func refTiles(a *Analysis, k tensor.Kind, ch tensor.Sizes, active int) (perPE, union int64) {
	perPE, union = 1, 1
	for _, ax := range refAxes(a, k, ch, active) {
		perPE *= ax.perPE
		union *= ax.union
	}
	return perPE, union
}

func refTileOf(a *Analysis, k tensor.Kind, ch tensor.Sizes) int64 {
	perPE, _ := refTiles(a, k, ch, 1)
	return perPE
}

func refUnionTile(a *Analysis, k tensor.Kind, ch tensor.Sizes, active int) int64 {
	_, union := refTiles(a, k, ch, active)
	return union
}

func refAffects(a *Analysis, k tensor.Kind, li int) bool {
	lp := a.Loops[li]
	if lp.IsFold {
		return a.spatial[k]
	}
	d := lp.Map.Dim
	if a.Layer.TensorDims(k).Has(d) {
		return true
	}
	switch {
	case k == tensor.Output && d == tensor.R:
		return !a.anchoredY
	case k == tensor.Output && d == tensor.S:
		return !a.anchoredX
	}
	return false
}

func refInnerAffecting(a *Analysis, k tensor.Kind, li int) bool {
	for j := li + 1; j < len(a.Loops); j++ {
		if a.Loops[j].Steps > 1 && refAffects(a, k, j) {
			return true
		}
	}
	return false
}

func refNewData(a *Analysis, k tensor.Kind, li int, ch tensor.Sizes, active int) (perPE, union int64) {
	perPE, union = refTiles(a, k, ch, active)
	if li < 0 {
		return perPE, union
	}
	lp := a.Loops[li]
	if !refAffects(a, k, li) {
		if refInnerAffecting(a, k, li) {
			return perPE, union
		}
		return 0, 0
	}
	if refInnerAffecting(a, k, li) || lp.IsFold {
		return perPE, union
	}
	d := lp.Map.Dim
	shift := int64(a.shiftOf(k, d, lp.Map.Offset))
	for _, ax := range refAxes(a, k, ch, active) {
		if ax.dims.Has(d) {
			return slide(perPE, ax.perPE, shift), slide(union, ax.union, shift)
		}
	}
	return perPE, union
}

// TestQueriesMatchReference checks Chunks, TileOf, UnionTile and NewData
// against the reference queries on every level node of every zoo layer
// under every Table 3 dataflow that resolves on Accel256. Table 3's
// spatial maps never end in a clipped chunk there, so it adds a
// two-level dataflow whose spatial chunks do not divide their
// dimensions, and two odd-sized layers. At each node
// it tries every edge vector the case walk can produce (each subset of
// the loops with a clipped final chunk, with and without the spatially
// clipped chunk), every active count (one, the last fold's and all
// sub-clusters), every tensor and every advancing loop, and recurses
// into every child sub-problem those chunks hand down. Like the
// engine's pooled walk, it resolves each depth into one Level and
// Analysis reused across nodes and layers (LevelInto and Reset), so
// stale state would show too.
func TestQueriesMatchReference(t *testing.T) {
	cfg := hw.Accel256()
	type node struct {
		level int
		dims  tensor.Sizes
	}
	layers := map[string][]tensor.Layer{"odd": {
		{Name: "odd-conv", Op: tensor.Conv2D, Sizes: tensor.Sizes{tensor.N: 1, tensor.K: 37, tensor.C: 19, tensor.Y: 29, tensor.X: 31, tensor.R: 3, tensor.S: 3}},
		{Name: "odd-pw", Op: tensor.PointwiseConv, Sizes: tensor.Sizes{tensor.N: 3, tensor.K: 101, tensor.C: 67, tensor.Y: 13, tensor.X: 11, tensor.R: 1, tensor.S: 1}},
	}}
	sets := append([]string{"odd"}, models.Zoo()...)
	for _, model := range sets[1:] {
		m, ok := models.ByName(model)
		if !ok {
			t.Fatalf("zoo model %s not found", model)
		}
		for _, li := range m.Layers {
			layers[model] = append(layers[model], li.Layer)
		}
	}
	dfs := []dataflow.Dataflow{{Name: "edges", Directives: []dataflow.Directive{
		dataflow.SMap(dataflow.Lit(3), dataflow.Lit(3), tensor.K),
		dataflow.TMap(dataflow.Lit(5), dataflow.Lit(5), tensor.C),
		dataflow.TMap(dataflow.Sz(tensor.R), dataflow.Lit(1), tensor.Y),
		dataflow.TMap(dataflow.Sz(tensor.S), dataflow.Lit(1), tensor.X),
		dataflow.ClusterOf(dataflow.Lit(4)),
		dataflow.SMap(dataflow.Lit(2), dataflow.Lit(2), tensor.C),
	}}}
	for _, name := range dataflows.Names {
		dfs = append(dfs, dataflows.Get(name))
	}
	var lvs []dataflow.Level
	var as []Analysis
	nodes, queries, spatialEdges := 0, 0, 0
	for _, model := range sets {
		for _, layer := range layers[model] {
			for _, df := range dfs {
				spec, err := dataflow.Resolve(df, layer, cfg.NumPEs)
				if err != nil {
					continue
				}
				at := model + "/" + layer.Name + "/" + df.Name
				for len(lvs) < spec.NumLevels() {
					lvs, as = append(lvs, dataflow.Level{}), append(as, Analysis{})
				}
				seen := map[node]bool{}
				var walk func(level int, dims tensor.Sizes)
				walk = func(level int, dims tensor.Sizes) {
					if level == spec.NumLevels() || seen[node{level, dims}] {
						return
					}
					seen[node{level, dims}] = true
					lv, a := &lvs[level], &as[level]
					if spec.LevelInto(lv, level, dims) != nil {
						return
					}
					a.Reset(lv, spec.Layer)
					nodes++
					var edgeLoops []int
					for i, lp := range a.Loops {
						if !lp.IsFold && lp.Map.HasEdge() {
							edgeLoops = append(edgeLoops, i)
						}
					}
					for _, si := range lv.Spatial {
						if lv.Maps[si].HasEdge() {
							spatialEdges++
						}
					}
					actives := []int{1, lv.LastFoldActive, lv.SubClusters}
					edges := make([]bool, len(a.Loops))
					for set := 0; set < 1<<len(edgeLoops); set++ {
						for j, i := range edgeLoops {
							edges[i] = set&(1<<j) != 0
						}
						for _, spatialEdge := range []bool{false, true} {
							ch := a.Chunks(edges, spatialEdge)
							if want := refChunks(a, edges, spatialEdge); ch != want {
								t.Fatalf("%s level %d %v: Chunks(%v, %v) = %v, reference %v",
									at, level, dims, edges, spatialEdge, ch, want)
							}
							for _, k := range tensor.AllKinds() {
								if got, want := a.TileOf(k, ch), refTileOf(a, k, ch); got != want {
									t.Fatalf("%s level %d %v: TileOf(%s, %v) = %d, reference %d", at, level, dims, k, ch, got, want)
								}
								for _, active := range actives {
									queries++
									if got, want := a.UnionTile(k, ch, active), refUnionTile(a, k, ch, active); got != want {
										t.Fatalf("%s level %d %v: UnionTile(%s, %v, %d) = %d, reference %d",
											at, level, dims, k, ch, active, got, want)
									}
									for adv := -1; adv < len(a.Loops); adv++ {
										p, u := a.NewData(k, adv, ch, active)
										rp, ru := refNewData(a, k, adv, ch, active)
										if p != rp || u != ru {
											t.Fatalf("%s level %d %v: NewData(%s, %d, %v, %d) = %d/%d, reference %d/%d",
												at, level, dims, k, adv, ch, active, p, u, rp, ru)
										}
									}
								}
							}
							walk(level+1, a.ChildDims(ch))
						}
					}
				}
				walk(0, spec.Layer.Sizes)
			}
		}
	}
	if nodes == 0 || spatialEdges == 0 {
		t.Fatalf("%d level nodes, %d with a clipped spatial chunk: want some of each", nodes, spatialEdges)
	}
	t.Logf("%d level nodes (%d with a clipped spatial chunk), %d (tensor, chunks, active) queries", nodes, spatialEdges, queries)
}
