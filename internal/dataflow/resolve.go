package dataflow

import (
	"fmt"

	"repro/internal/tensor"
)

// Spec is the output of the cluster-analysis engine (Section 4.1): a
// dataflow bound to a concrete layer and PE count, split into cluster
// levels with per-level sub-cluster counts. Per-level mapping resolution
// happens on demand through Level, because edge cases at an outer level
// shrink the sub-problem an inner level sees.
type Spec struct {
	Dataflow Dataflow
	Layer    tensor.Layer
	NumPEs   int

	levelDirs   [][]Directive
	subClusters []int
}

// NumLevels returns the number of cluster levels (Cluster directives + 1).
func (sp *Spec) NumLevels() int { return len(sp.levelDirs) }

// UsedPEs returns how many PEs the mapping occupies: the product of the
// per-level sub-cluster counts. PEs beyond this count sit idle.
func (sp *Spec) UsedPEs() int {
	p := 1
	for _, s := range sp.subClusters {
		p *= s
	}
	return p
}

// SubClusters returns how many sub-clusters level i distributes across.
func (sp *Spec) SubClusters(i int) int { return sp.subClusters[i] }

// Resolve binds a dataflow to a layer and a PE count, performing the
// cluster-structure analysis. It validates the cluster arithmetic (the
// product of cluster sizes must divide the PE count) and that no dimension
// is mapped twice within a level.
func Resolve(df Dataflow, layer tensor.Layer, numPEs int) (*Spec, error) {
	layer = layer.Normalize()
	if err := layer.Validate(); err != nil {
		return nil, err
	}
	if numPEs < 1 {
		return nil, invalidf("dataflow %s: PE count %d < 1", df.Name, numPEs)
	}
	levels, clusterSizes := df.Levels()
	sub := make([]int, len(levels))
	prod := 1
	for i, cs := range clusterSizes {
		n := cs.Eval(layer.Sizes)
		if n < 1 {
			return nil, invalidf("dataflow %s: Cluster(%s) resolves to %d", df.Name, cs, n)
		}
		sub[i+1] = n
		prod *= n
	}
	if prod > numPEs {
		return nil, invalidf("dataflow %s: cluster product %d exceeds %d PEs",
			df.Name, prod, numPEs)
	}
	// A PE count that the cluster product does not divide leaves the
	// remainder idle (utilization loss), matching MAESTRO's behaviour for
	// e.g. Cluster(Sz(R)) with R=3 on 256 PEs.
	sub[0] = numPEs / prod
	for i, dirs := range levels {
		seen := tensor.DimSet(0)
		for _, d := range dirs {
			if seen.Has(d.Dim) {
				return nil, invalidf("dataflow %s: level %d maps %s twice", df.Name, i, d.Dim)
			}
			seen = seen.Add(d.Dim)
		}
	}
	return &Spec{
		Dataflow:    df,
		Layer:       layer,
		NumPEs:      numPEs,
		levelDirs:   levels,
		subClusters: sub,
	}, nil
}

// ResolvedMap is one mapping directive bound to concrete sizes for a
// specific sub-problem.
type ResolvedMap struct {
	Kind     MapKind
	Dim      tensor.Dim
	Size     int  // steady chunk size (stride-scaled, clipped to DimSize)
	Offset   int  // chunk-to-chunk shift (stride-scaled)
	DimSize  int  // extent of Dim in this sub-problem
	Steps    int  // temporal steps (temporal maps) or spatial chunks (spatial maps)
	EdgeSize int  // size of the final chunk (== Size when unclipped)
	Implicit bool // added by augmentation for an unmentioned dimension
}

// HasEdge reports whether the final chunk is smaller than the steady chunk.
func (m ResolvedMap) HasEdge() bool { return m.EdgeSize != m.Size }

// ChunkAt returns the start index and size of chunk t.
func (m ResolvedMap) ChunkAt(t int) (start, size int) {
	start = t * m.Offset
	size = m.Size
	if t == m.Steps-1 {
		size = m.EdgeSize
	}
	return start, size
}

// Level is the fully resolved mapping of one cluster level for one
// sub-problem: every dimension appears exactly once in Maps (augmentation
// adds implicit single-chunk temporal maps), in nest order, outermost
// first.
type Level struct {
	Index       int
	SubClusters int
	Dims        tensor.Sizes
	Maps        []ResolvedMap

	// Spatial lists indices into Maps of the spatial maps (empty when the
	// level is purely temporal). All spatial maps of a level share the
	// sub-cluster index: sub-cluster p takes chunk p of each (the paper's
	// Figure 6 row-stationary inner cluster co-maps Y and R this way).
	Spatial []int
	// SpatialChunks is the per-spatial-map chunk count (validated equal
	// across the level's spatial maps); Folds is how many temporal
	// iterations the spatial maps need when SpatialChunks > SubClusters,
	// and LastFoldActive how many sub-clusters the final fold occupies.
	SpatialChunks  int
	Folds          int
	LastFoldActive int
	// FoldPos is the nest position (index into Maps) at which the implicit
	// fold loop iterates: the position of the first spatial map. -1 when
	// the level has no spatial map.
	FoldPos int
}

// Map returns the resolved map for dimension d.
func (lv *Level) Map(d tensor.Dim) *ResolvedMap {
	for i := range lv.Maps {
		if lv.Maps[i].Dim == d {
			return &lv.Maps[i]
		}
	}
	return nil
}

// IsSpatial reports whether dimension d is spatially mapped at this level.
func (lv *Level) IsSpatial(d tensor.Dim) bool {
	for _, i := range lv.Spatial {
		if lv.Maps[i].Dim == d {
			return true
		}
	}
	return false
}

// SpatialDims returns the set of spatially mapped dimensions.
func (lv *Level) SpatialDims() tensor.DimSet {
	var s tensor.DimSet
	for _, i := range lv.Spatial {
		s = s.Add(lv.Maps[i].Dim)
	}
	return s
}

// Level resolves cluster level i of the spec against sub-problem dimension
// sizes dims (for level 0, the layer's own sizes; for deeper levels, the
// tile an outer level assigned to one sub-cluster).
func (sp *Spec) Level(i int, dims tensor.Sizes) (*Level, error) {
	lv := new(Level)
	if err := sp.LevelInto(lv, i, dims); err != nil {
		return nil, err
	}
	return lv, nil
}

// LevelInto is Level resolving into lv, reusing the backing arrays of
// its Maps and Spatial, so a walk that resolves many levels of one depth
// allocates for the first only. It overwrites every field of lv, also
// on error.
func (sp *Spec) LevelInto(lv *Level, i int, dims tensor.Sizes) error {
	if i < 0 || i >= len(sp.levelDirs) {
		return fmt.Errorf("level %d out of range", i)
	}
	maps := lv.Maps[:0]
	if cap(maps) < int(tensor.NumDims) {
		// Resolve rejects a dimension mapped twice, so explicit plus
		// implicit maps fill exactly one slot per dimension.
		maps = make([]ResolvedMap, 0, tensor.NumDims)
	}
	*lv = Level{
		Index:       i,
		SubClusters: sp.subClusters[i],
		Dims:        dims,
		Maps:        maps,
		Spatial:     lv.Spatial[:0],
		FoldPos:     -1,
	}
	layer := sp.Layer

	// A spatial activation map co-mapped with a spatial map on its filter
	// dimension (the Eyeriss diagonal: y = a+p, r = p) slides the filter
	// window, not the output position, and must not be stride-scaled.
	spatialOn := tensor.DimSet(0)
	for _, dir := range sp.levelDirs[i] {
		if !dir.IsCluster && dir.Kind == Spatial {
			spatialOn = spatialOn.Add(dir.Dim)
		}
	}

	// First pass: resolve explicit maps in directive order.
	mentioned := tensor.DimSet(0)
	for _, dir := range sp.levelDirs[i] {
		coMapped := false
		if wd, ok := dir.Dim.Window(); ok {
			coMapped = dir.Kind == Spatial && spatialOn.Has(wd)
		}
		m, err := resolveMap(dir, dims, layer, coMapped)
		if err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
		mentioned = mentioned.Add(m.Dim)
		lv.Maps = append(lv.Maps, m)
	}
	// Augmentation: unmentioned dimensions become single-chunk temporal
	// maps, innermost (they never advance, so their nest position only
	// needs to not interfere with explicit maps).
	for _, d := range tensor.AllDims() {
		if !mentioned.Has(d) {
			sz := dims.Get(d)
			lv.Maps = append(lv.Maps, ResolvedMap{
				Kind: Temporal, Dim: d, Size: sz, Offset: sz,
				DimSize: sz, Steps: 1, EdgeSize: sz, Implicit: true,
			})
		}
	}

	// Second pass: step counts need the level's window chunks (a sliding
	// map's useless trailing chunk — smaller than the filter chunk — is
	// dropped), so compute them after all sizes are known.
	for idx := range lv.Maps {
		m := &lv.Maps[idx]
		if m.Implicit {
			continue
		}
		win := 0
		if wd, ok := m.Dim.Window(); ok {
			fm := lv.Map(wd)
			win = tensor.EffectiveWindow(m.Size, fm.Size, fm.DimSize)
		}
		m.Steps, m.EdgeSize = stepsFor(m.DimSize, m.Size, m.Offset, win)
		if m.Kind == Spatial {
			if lv.FoldPos == -1 {
				lv.FoldPos = idx
				lv.SpatialChunks = m.Steps
			} else if m.Steps != lv.SpatialChunks {
				return invalidf(
					"level %d: co-mapped spatial dims disagree on chunk count (%s has %d, first has %d)",
					i, m.Dim, m.Steps, lv.SpatialChunks)
			}
			lv.Spatial = append(lv.Spatial, idx)
		}
	}
	if lv.FoldPos >= 0 {
		lv.Folds = (lv.SpatialChunks + lv.SubClusters - 1) / lv.SubClusters
		lv.LastFoldActive = lv.SpatialChunks - (lv.Folds-1)*lv.SubClusters
	} else {
		lv.Folds, lv.LastFoldActive = 1, lv.SubClusters
	}
	return lv.checkCoverage(layer)
}

// resolveMap binds one directive to the sub-problem: evaluates symbolic
// sizes against the layer, applies stride scaling to sliding dimensions
// (the CLA engine's "apply stride" step), and clips to the dim extent.
func resolveMap(dir Directive, dims tensor.Sizes, layer tensor.Layer, coMapped bool) (ResolvedMap, error) {
	if dir.IsCluster {
		return ResolvedMap{}, invalidf("unexpected Cluster directive inside level")
	}
	d := dir.Dim
	dimSize := dims.Get(d)
	size := dir.Size.Eval(layer.Sizes)
	offset := dir.Offset.Eval(layer.Sizes)
	if wd, ok := d.Window(); ok && !coMapped {
		stride := layer.StrideY
		if d == tensor.X {
			stride = layer.StrideX
		}
		if stride > 1 {
			// A sliding map written for stride 1 ("c+Sz(R)" covers c+1
			// output rows) covers the same outputs at stride s with
			// size c*s+Sz(R) and an offset scaled by s.
			if dir.Size.SymbolicOf(wd) {
				size = dir.Size.Const*stride + (size - dir.Size.Const)
			}
			offset *= stride
		}
	}
	if size < 1 || offset < 1 {
		return ResolvedMap{}, invalidf("%s resolves to size %d offset %d", dir, size, offset)
	}
	if size > dimSize {
		size = dimSize
	}
	return ResolvedMap{
		Kind: dir.Kind, Dim: d, Size: size, Offset: offset,
		DimSize: dimSize, EdgeSize: size,
	}, nil
}

// stepsFor computes how many chunks a map of (size, offset) needs to cover
// a dimension of extent dim, and the size of the final chunk. For sliding
// dimensions, win is the co-mapped filter chunk: a trailing chunk smaller
// than win computes no outputs and is dropped.
func stepsFor(dim, size, offset, win int) (steps, edge int) {
	if size >= dim {
		return 1, dim
	}
	steps = (dim-size+offset-1)/offset + 1
	edge = dim - offset*(steps-1)
	if win > 0 && edge < win && steps > 1 {
		steps--
		edge = min(size, dim-offset*(steps-1))
	}
	return steps, edge
}

// checkCoverage validates that each dimension's chunks cover its full
// extent: every output position of a sliding dimension is computed by some
// chunk, and every index of a plain dimension belongs to some chunk.
// Uncovered positions mean the dataflow silently skips work, which the
// paper treats as an invalid mapping.
func (lv *Level) checkCoverage(layer tensor.Layer) error {
	for _, m := range lv.Maps {
		if m.Steps == 1 && m.EdgeSize >= m.DimSize {
			continue
		}
		if wd, ok := m.Dim.Window(); ok {
			stride := layer.StrideY
			if m.Dim == tensor.X {
				stride = layer.StrideX
			}
			if m.Kind == Spatial && lv.IsSpatial(wd) {
				// Co-mapped activation/filter pair (Eyeriss diagonal):
				// the output position per sub-cluster is fixed at
				// (offY - offR)/stride, which must be integral.
				if (m.Offset-lv.Map(wd).Offset)%stride != 0 {
					return invalidf("level %d: co-mapped %s/%s offsets misalign with stride %d",
						lv.Index, m.Dim, wd, stride)
				}
				continue
			}
			fm := lv.Map(wd)
			win := tensor.EffectiveWindow(m.Size, fm.Size, fm.DimSize)
			// Chunk t covers outputs [t*offset/stride, (t*offset+chunk-win)/stride].
			// Contiguity between consecutive steady chunks requires
			// offset <= size-win+stride; the final (possibly edge) chunk
			// must reach the last output.
			if m.Steps > 1 && m.Offset > m.Size-win+stride {
				return invalidf("level %d: map %s(%d,%d) %s leaves output gaps (window %d, stride %d)",
					lv.Index, m.Kind, m.Size, m.Offset, m.Dim, win, stride)
			}
			lastStart, lastChunk := m.ChunkAt(m.Steps - 1)
			lastOut := (lastStart + lastChunk - win) / stride
			if want := tensor.OutSpan(m.DimSize, win, stride) - 1; lastOut < want {
				return invalidf("level %d: map %s(%d,%d) %s covers outputs up to %d of %d",
					lv.Index, m.Kind, m.Size, m.Offset, m.Dim, lastOut, want)
			}
			if m.Offset%stride != 0 {
				return invalidf("level %d: map on %s has offset %d not a multiple of stride %d",
					lv.Index, m.Dim, m.Offset, stride)
			}
		} else if m.Offset > m.Size {
			return invalidf("level %d: map %s(%d,%d) %s leaves index gaps",
				lv.Index, m.Kind, m.Size, m.Offset, m.Dim)
		}
	}
	return nil
}

// SubTile returns the sub-problem dimension sizes one sub-cluster receives
// from this level when every map is at a steady (full-size) chunk.
func (lv *Level) SubTile() tensor.Sizes {
	var out tensor.Sizes
	for _, m := range lv.Maps {
		out = out.Set(m.Dim, m.Size)
	}
	return out
}
