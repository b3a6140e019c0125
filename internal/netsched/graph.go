package netsched

import (
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// Graph is the activation DAG of a model: for each layer, the producer
// layers whose outputs it consumes (channel-wise concatenated) and the
// consumer layers that read its output. A model with an empty Edges list
// is materialized as the linear chain.
type Graph struct {
	Model models.Model
	// Ins[i] lists the producer layer indices of layer i, ascending; a
	// layer with no producers reads the model input. Outs[i] lists the
	// consumers of layer i's output, ascending.
	Ins  [][]int
	Outs [][]int

	// geo holds each layer's shape facts, derived once here so the
	// fusion scheduler's interval pricing reads flat fields instead of
	// re-deriving them from tensor.Layer on every call.
	geo []layerGeom
}

// layerGeom is one layer's shape facts as the fusion scheduler reads
// them. Row counts are in the layer's own output (or, for the model
// input, input) coordinates.
type layerGeom struct {
	count int
	// fusible: a windowed-spatial operator (fusibleOp) whose input
	// channels equal the summed output channels of its producers (the
	// concat contract).
	fusible    bool
	outY, outX int
	r, strideY int
	// fullIn is the input rows the whole output needs.
	fullIn int
	// maxIn is the largest producer index (-1 for a root); badIn the
	// largest producer whose edge is not spatially composable (-1 when
	// every edge is). lastOut is the largest consumer index, or the
	// layer count when the output leaves the model: layer i writes out
	// of a group ending at hi exactly when lastOut > hi.
	maxIn, badIn, lastOut int
	// wElems and outElems are the density-scaled weight and output
	// element counts; outRowEl the dense elements of one output row.
	wElems, outElems int64
	outRowEl         int64
	outDensity       float64
	// inRowEl, inDensity and inLimit describe the model input a root
	// reads: dense elements per row, density, and row count.
	inRowEl   int64
	inDensity float64
	inLimit   int
}

// inRows is inRowsFor over the cached geometry.
func (lg *layerGeom) inRows(outRows int) int {
	if outRows <= 0 {
		return 0
	}
	return (outRows-1)*lg.strideY + lg.r
}

// BuildGraph validates the model's activation DAG and materializes the
// adjacency lists. Duplicate edges collapse to one; an empty edge list
// becomes the linear chain i-1 -> i.
func BuildGraph(m models.Model) (*Graph, error) {
	if len(m.Layers) == 0 {
		return nil, fmt.Errorf("netsched: model %s has no layers", m.Name)
	}
	if err := m.ValidateEdges(); err != nil {
		return nil, err
	}
	n := len(m.Layers)
	g := &Graph{Model: m, Ins: make([][]int, n), Outs: make([][]int, n)}
	edges := m.Edges
	if len(edges) == 0 {
		edges = make([]models.ActEdge, 0, n-1)
		for i := 1; i < n; i++ {
			edges = append(edges, models.ActEdge{From: i - 1, To: i})
		}
	}
	seen := make(map[models.ActEdge]bool, len(edges))
	for _, e := range edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		g.Ins[e.To] = append(g.Ins[e.To], e.From)
		g.Outs[e.From] = append(g.Outs[e.From], e.To)
	}
	for i := range g.Ins {
		sort.Ints(g.Ins[i])
		sort.Ints(g.Outs[i])
	}
	g.geo = make([]layerGeom, n)
	for i, li := range m.Layers {
		l := li.Layer
		lg := &g.geo[i]
		lg.count = li.Count
		lg.outY, lg.outX = l.OutY(), l.OutX()
		lg.r, lg.strideY = l.Sizes.Get(tensor.R), l.StrideY
		lg.fullIn = inRowsFor(l, lg.outY)
		lg.wElems = scaledElems(l, tensor.Weight)
		lg.outElems = scaledElems(l, tensor.Output)
		lg.outRowEl = outRowElems(l)
		lg.outDensity = l.Density[tensor.Output]
		lg.inLimit, lg.inDensity = l.Sizes.Get(tensor.Y), l.Density[tensor.Input]
		if lg.inLimit != 0 {
			lg.inRowEl = l.TensorSize(tensor.Input) / int64(lg.inLimit)
		}
		lg.maxIn, lg.badIn, lg.lastOut = -1, -1, n
		if outs := g.Outs[i]; len(outs) > 0 {
			lg.lastOut = outs[len(outs)-1]
		}
		channels := 0
		for _, p := range g.Ins[i] {
			lp := m.Layers[p].Layer
			channels += outChannels(lp)
			lg.maxIn = p
			// The consumer's input rows may exceed the producer's output
			// rows by at most R-1 (padding slack) and never fall short
			// (no cropping); the same along X.
			dy := lg.fullIn - lp.OutY()
			dx := inColsFor(l, lg.outX) - lp.OutX()
			if dy < 0 || dy > lg.r-1 || dx < 0 || dx > l.Sizes.Get(tensor.S)-1 {
				lg.badIn = p
			}
		}
		lg.fusible = fusibleOp(l.Op) && (len(g.Ins[i]) == 0 || channels == l.Sizes.Get(tensor.C))
	}
	return g, nil
}

// Roots returns the layers with no producer: they read the model input.
func (g *Graph) Roots() []int {
	var r []int
	for i, ins := range g.Ins {
		if len(ins) == 0 {
			r = append(r, i)
		}
	}
	return r
}

// outChannels returns the number of output channels layer l produces:
// K for channel-producing operators, C for the depth-wise family whose
// output stays coupled to the input channels.
func outChannels(l tensor.Layer) int {
	if l.TensorDims(tensor.Output).Has(tensor.K) {
		return l.Sizes.Get(tensor.K)
	}
	return l.Sizes.Get(tensor.C)
}

// scaledElems returns tensor k's density-scaled element count, mirroring
// the engine's footprint rounding bit for bit (core.scaleCount): a zero
// density scales to zero, which is the pooling-weight convention
// (no weight tensor at all). Normalized layers never carry density zero
// on activations.
func scaledElems(l tensor.Layer, k tensor.Kind) int64 {
	d := l.Density[k]
	if d >= 1 {
		return l.TensorSize(k)
	}
	return int64(float64(l.TensorSize(k))*d + 0.5)
}

// outRowElems returns the dense element count of one output row
// (N × channels × OutX); output tensors stream row-granular through L2
// in a fused schedule.
func outRowElems(l tensor.Layer) int64 {
	oy := l.OutY()
	if oy == 0 {
		return 0
	}
	return l.TensorSize(tensor.Output) / int64(oy)
}

// inRowsFor returns how many input rows layer l needs to produce
// outRows output rows: (outRows-1)*strideY + R.
func inRowsFor(l tensor.Layer, outRows int) int {
	if outRows <= 0 {
		return 0
	}
	return (outRows-1)*l.StrideY + l.Sizes.Get(tensor.R)
}

// inColsFor is inRowsFor along X.
func inColsFor(l tensor.Layer, outCols int) int {
	if outCols <= 0 {
		return 0
	}
	return (outCols-1)*l.StrideX + l.Sizes.Get(tensor.S)
}

// scaleRows prices rows x rowEl dense elements at density d with the
// engine's rounding (core.scaleCount).
func scaleRows(rows int, rowEl int64, d float64) int64 {
	n := int64(rows) * rowEl
	if d >= 1 {
		return n
	}
	return int64(float64(n)*d + 0.5)
}

// elemBytes returns the configured element width, defaulting to one.
func elemBytes(cfg hw.Config) int64 {
	if cfg.ElemBytes <= 0 {
		return 1
	}
	return int64(cfg.ElemBytes)
}
