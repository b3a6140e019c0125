// Package models is the DNN model zoo of the paper's evaluation
// (Section 5, Table 4): VGG16, AlexNet, ResNet50, ResNeXt50, MobileNetV2,
// UNet, and the DCGAN generator, expressed as layer shapes on the
// seven-dimensional space, plus the operator taxonomy of Table 4.
//
// Activation sizes are given in input coordinates including padding:
// a convolution producing out positions at stride s with an r-wide filter
// reads (out-1)*s + r input positions.
package models

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/tensor"
)

// Class is the operator taxonomy of Table 4.
type Class uint8

// Operator classes.
const (
	EarlyConv   Class = iota // CONV2D early layers: wide activation, shallow channels
	LateConv                 // CONV2D late layers: narrow activation, deep channels
	Pointwise                // 1x1 convolution
	Depthwise                // depth-wise convolution
	FullyConn                // fully connected / GEMM
	Transposed               // transposed (up-scale) convolution
	AggResidual              // grouped convolution inside aggregated residual blocks
	NumClasses
)

var classNames = [NumClasses]string{
	"early", "late", "point-wise", "depth-wise", "fully-connected", "transposed", "aggregated-residual",
}

// String returns the class name used in reports.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// LayerInst is one layer of a model together with how many times the
// shape repeats in the network.
type LayerInst struct {
	Layer tensor.Layer
	Count int
	Class Class
}

// ActEdge is one activation edge of a model's layer DAG: the output of
// layer From (index into Layers) is an input of layer To. A consumer
// with several producers reads their channel-wise concatenation (the
// inception concat); From < To always — layer order is topological.
type ActEdge struct {
	From, To int
}

// Model is a named list of layer instances. Edges, when non-empty, is
// the explicit activation DAG; an empty edge list means the layers form
// a linear chain (each layer consumes its predecessor's output).
type Model struct {
	Name   string
	Layers []LayerInst
	Edges  []ActEdge
}

// ValidateEdges checks the activation DAG: every edge must point
// forward (From < To) within the layer list. Forward-only edges make
// the listed layer order a topological order, so a violation is
// reported as a cycle.
func (m Model) ValidateEdges() error {
	for _, e := range m.Edges {
		if e.From < 0 || e.To >= len(m.Layers) || e.From >= e.To {
			return fmt.Errorf("models: %s: activation edge %d->%d invalid (need 0 <= From < To < %d)",
				m.Name, e.From, e.To, len(m.Layers))
		}
	}
	return nil
}

// MACs returns the model's total algorithmic MAC count.
func (m Model) MACs() int64 {
	var t int64
	for _, li := range m.Layers {
		t += li.Layer.MACs() * int64(li.Count)
	}
	return t
}

// Find returns the first layer whose name matches.
func (m Model) Find(name string) (LayerInst, bool) {
	for _, li := range m.Layers {
		if li.Layer.Name == name {
			return li, true
		}
	}
	return LayerInst{}, false
}

// Classify applies Table 4's taxonomy to a layer; for plain convolutions
// it uses the paper's footnote: "If C > Y, late layer. Else, early layer."
func Classify(l tensor.Layer) Class {
	switch l.Op {
	case tensor.DepthwiseConv, tensor.Pooling:
		return Depthwise
	case tensor.PointwiseConv:
		return Pointwise
	case tensor.FullyConnected, tensor.GEMM:
		return FullyConn
	case tensor.TransposedConv:
		return Transposed
	}
	if l.Sizes.Get(tensor.R) == 1 && l.Sizes.Get(tensor.S) == 1 {
		return Pointwise
	}
	if l.Sizes.Get(tensor.C) > l.Sizes.Get(tensor.Y) {
		return LateConv
	}
	return EarlyConv
}

// conv builds a dense convolution reading (out-1)*stride+r padded input
// positions per axis.
func conv(name string, k, c, out, r, stride int) tensor.Layer {
	in := (out-1)*stride + r
	return tensor.Layer{
		Name: name, Op: tensor.Conv2D,
		Sizes:   tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c, tensor.Y: in, tensor.X: in, tensor.R: r, tensor.S: r},
		StrideY: stride, StrideX: stride,
	}.Normalize()
}

// pwconv builds a 1x1 convolution.
func pwconv(name string, k, c, out, stride int) tensor.Layer {
	l := conv(name, k, c, out, 1, stride)
	l.Op = tensor.PointwiseConv
	return l.Normalize()
}

// dwconv builds a depth-wise convolution over c channels.
func dwconv(name string, c, out, r, stride int) tensor.Layer {
	in := (out-1)*stride + r
	return tensor.Layer{
		Name: name, Op: tensor.DepthwiseConv,
		Sizes:   tensor.Sizes{tensor.N: 1, tensor.C: c, tensor.Y: in, tensor.X: in, tensor.R: r, tensor.S: r},
		StrideY: stride, StrideX: stride,
	}.Normalize()
}

// fc builds a fully connected layer.
func fc(name string, k, c int) tensor.Layer {
	return tensor.Layer{
		Name: name, Op: tensor.FullyConnected,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c},
	}.Normalize()
}

// trconv builds a transposed convolution producing out x out outputs from
// an up-scale of factor `up`, modeled as a stride-1 convolution over the
// zero-stuffed (structurally sparse) up-sampled input: input density
// 1/up².
func trconv(name string, k, c, out, r, up int) tensor.Layer {
	l := tensor.Layer{
		Name: name, Op: tensor.TransposedConv,
		Sizes: tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c, tensor.Y: out + r - 1, tensor.X: out + r - 1, tensor.R: r, tensor.S: r},
	}
	l.Density[tensor.Input] = 1 / float64(up*up)
	return l.Normalize()
}

// groupedConv models a grouped convolution (g groups) as a dense
// convolution over C/g input channels per output channel, which preserves
// the MAC count and per-output coupling of aggregated residual blocks.
func groupedConv(name string, k, c, out, r, stride, g int) tensor.Layer {
	return conv(name, k, c/g, out, r, stride)
}

func inst(l tensor.Layer, count int) LayerInst {
	return LayerInst{Layer: l, Count: count, Class: Classify(l)}
}

// VGG16 returns the 13 convolutional and 3 fully connected layers of
// VGG16 (Simonyan & Zisserman).
func VGG16() Model {
	outs := []struct {
		k, c, out int
	}{
		{64, 3, 224}, {64, 64, 224},
		{128, 64, 112}, {128, 128, 112},
		{256, 128, 56}, {256, 256, 56}, {256, 256, 56},
		{512, 256, 28}, {512, 512, 28}, {512, 512, 28},
		{512, 512, 14}, {512, 512, 14}, {512, 512, 14},
	}
	m := Model{Name: "VGG16"}
	for i, o := range outs {
		m.Layers = append(m.Layers, inst(conv(fmt.Sprintf("CONV%d", i+1), o.k, o.c, o.out, 3, 1), 1))
	}
	m.Layers = append(m.Layers,
		inst(fc("FC1", 4096, 25088), 1),
		inst(fc("FC2", 4096, 4096), 1),
		inst(fc("FC3", 1000, 4096), 1),
	)
	return m
}

// AlexNet returns the five convolutional layers of AlexNet (grouped
// convolutions merged dense, as in the Eyeriss evaluation) plus the
// classifier.
func AlexNet() Model {
	l1 := tensor.Layer{
		Name: "CONV1", Op: tensor.Conv2D,
		Sizes:   tensor.Sizes{tensor.N: 1, tensor.K: 96, tensor.C: 3, tensor.Y: 227, tensor.X: 227, tensor.R: 11, tensor.S: 11},
		StrideY: 4, StrideX: 4,
	}.Normalize()
	return Model{Name: "AlexNet", Layers: []LayerInst{
		inst(l1, 1),
		inst(conv("CONV2", 256, 96, 27, 5, 1), 1),
		inst(conv("CONV3", 384, 256, 13, 3, 1), 1),
		inst(conv("CONV4", 384, 384, 13, 3, 1), 1),
		inst(conv("CONV5", 256, 384, 13, 3, 1), 1),
		inst(fc("FC1", 4096, 9216), 1),
		inst(fc("FC2", 4096, 4096), 1),
		inst(fc("FC3", 1000, 4096), 1),
	}}
}

// ResNet50 returns the bottleneck-block structure of ResNet-50: for each
// stage, the first block reduces from the previous stage's width and the
// remaining blocks repeat.
func ResNet50() Model {
	m := Model{Name: "ResNet50", Layers: []LayerInst{
		inst(conv("CONV1", 64, 3, 112, 7, 2), 1),
	}}
	type stage struct {
		name           string
		inC, mid, outC int
		out, blocks    int
	}
	stages := []stage{
		{"CONV2", 64, 64, 256, 56, 3},
		{"CONV3", 256, 128, 512, 28, 4},
		{"CONV4", 512, 256, 1024, 14, 6},
		{"CONV5", 1024, 512, 2048, 7, 3},
	}
	for _, s := range stages {
		// First block: reduce from inC; remaining blocks: from outC.
		m.Layers = append(m.Layers,
			inst(pwconv(s.name+"_a1x1", s.mid, s.inC, s.out, 1), 1),
			inst(pwconv(s.name+"_b1x1", s.mid, s.outC, s.out, 1), s.blocks-1),
			inst(conv(s.name+"_3x3", s.mid, s.mid, s.out, 3, 1), s.blocks),
			inst(pwconv(s.name+"_c1x1", s.outC, s.mid, s.out, 1), s.blocks),
			inst(pwconv(s.name+"_proj", s.outC, s.inC, s.out, 1), 1), // residual projection
		)
	}
	m.Layers = append(m.Layers, inst(fc("FC1000", 1000, 2048), 1))
	return m
}

// ResNeXt50 returns the 32x4d aggregated-residual variant: the 3x3 layer
// of each block is a 32-group convolution (modeled with C/32 input
// channels per output).
func ResNeXt50() Model {
	m := Model{Name: "ResNeXt50", Layers: []LayerInst{
		inst(conv("CONV1", 64, 3, 112, 7, 2), 1),
	}}
	type stage struct {
		name           string
		inC, mid, outC int
		out, blocks    int
	}
	stages := []stage{
		{"CONV2", 64, 128, 256, 56, 3},
		{"CONV3", 256, 256, 512, 28, 4},
		{"CONV4", 512, 512, 1024, 14, 6},
		{"CONV5", 1024, 1024, 2048, 7, 3},
	}
	for _, s := range stages {
		g := groupedConv(s.name+"_g3x3", s.mid, s.mid, s.out, 3, 1, 32)
		m.Layers = append(m.Layers,
			inst(pwconv(s.name+"_a1x1", s.mid, s.inC, s.out, 1), 1),
			inst(pwconv(s.name+"_b1x1", s.mid, s.outC, s.out, 1), s.blocks-1),
			LayerInst{Layer: g, Count: s.blocks, Class: AggResidual},
			inst(pwconv(s.name+"_c1x1", s.outC, s.mid, s.out, 1), s.blocks),
		)
	}
	m.Layers = append(m.Layers, inst(fc("FC1000", 1000, 2048), 1))
	return m
}

// MobileNetV2 returns the inverted-bottleneck structure: per block an
// expanding 1x1, a 3x3 depth-wise (strided on stage entry), and a
// projecting 1x1.
func MobileNetV2() Model {
	m := Model{Name: "MobileNetV2", Layers: []LayerInst{
		inst(conv("CONV1", 32, 3, 112, 3, 2), 1),
		// Bottleneck 1: t=1 (no expansion).
		inst(dwconv("B1_dw", 32, 112, 3, 1), 1),
		inst(pwconv("B1_pw", 16, 32, 112, 1), 1),
	}}
	type block struct {
		name           string
		inC, outC      int
		t, out, stride int
		repeats        int
	}
	blocks := []block{
		{"B2", 16, 24, 6, 56, 2, 2},
		{"B3", 24, 32, 6, 28, 2, 3},
		{"B4", 32, 64, 6, 14, 2, 4},
		{"B5", 64, 96, 6, 14, 1, 3},
		{"B6", 96, 160, 6, 7, 2, 3},
		{"B7", 160, 320, 6, 7, 1, 1},
	}
	for _, b := range blocks {
		exp := b.inC * b.t
		expR := b.outC * b.t
		inOut := b.out * b.stride // activation size before the strided dw
		m.Layers = append(m.Layers,
			inst(pwconv(b.name+"_exp", exp, b.inC, inOut, 1), 1),
			inst(dwconv(b.name+"_dw", exp, b.out, 3, b.stride), 1),
			inst(pwconv(b.name+"_proj", b.outC, exp, b.out, 1), 1),
		)
		if b.repeats > 1 {
			m.Layers = append(m.Layers,
				inst(pwconv(b.name+"r_exp", expR, b.outC, b.out, 1), b.repeats-1),
				inst(dwconv(b.name+"r_dw", expR, b.out, 3, 1), b.repeats-1),
				inst(pwconv(b.name+"r_proj", b.outC, expR, b.out, 1), b.repeats-1),
			)
		}
	}
	m.Layers = append(m.Layers,
		inst(pwconv("CONV_last", 1280, 320, 7, 1), 1),
		inst(fc("FC", 1000, 1280), 1),
	)
	return m
}

// UNet returns the biomedical segmentation network of Ronneberger et al.
// (572x572 input, unpadded 3x3 convolutions, 2x2 up-convolutions).
func UNet() Model {
	m := Model{Name: "UNet"}
	add := func(l tensor.Layer) { m.Layers = append(m.Layers, inst(l, 1)) }
	unpadded := func(name string, k, c, out int) tensor.Layer {
		l := conv(name, k, c, out, 3, 1)
		return l
	}
	// Contracting path.
	add(unpadded("ENC1a", 64, 3, 570))
	add(unpadded("ENC1b", 64, 64, 568))
	add(unpadded("ENC2a", 128, 64, 282))
	add(unpadded("ENC2b", 128, 128, 280))
	add(unpadded("ENC3a", 256, 128, 138))
	add(unpadded("ENC3b", 256, 256, 136))
	add(unpadded("ENC4a", 512, 256, 66))
	add(unpadded("ENC4b", 512, 512, 64))
	add(unpadded("ENC5a", 1024, 512, 30))
	add(unpadded("ENC5b", 1024, 1024, 28))
	// Expanding path: up-convolution then two convolutions on the
	// concatenated features.
	add(trconv("UP4", 512, 1024, 56, 2, 2))
	add(unpadded("DEC4a", 512, 1024, 54))
	add(unpadded("DEC4b", 512, 512, 52))
	add(trconv("UP3", 256, 512, 104, 2, 2))
	add(unpadded("DEC3a", 256, 512, 102))
	add(unpadded("DEC3b", 256, 256, 100))
	add(trconv("UP2", 128, 256, 200, 2, 2))
	add(unpadded("DEC2a", 128, 256, 198))
	add(unpadded("DEC2b", 128, 128, 196))
	add(trconv("UP1", 64, 128, 392, 2, 2))
	add(unpadded("DEC1a", 64, 128, 390))
	add(unpadded("DEC1b", 64, 64, 388))
	add(pwconv("OUT", 2, 64, 388, 1))
	return m
}

// DCGAN returns the DCGAN generator: a chain of transposed convolutions
// up-scaling a 4x4x1024 seed to a 64x64 image.
func DCGAN() Model {
	return Model{Name: "DCGAN", Layers: []LayerInst{
		inst(fc("PROJECT", 1024*4*4, 100), 1),
		inst(trconv("TRCONV1", 512, 1024, 8, 4, 2), 1),
		inst(trconv("TRCONV2", 256, 512, 16, 4, 2), 1),
		inst(trconv("TRCONV3", 128, 256, 32, 4, 2), 1),
		inst(trconv("TRCONV4", 3, 128, 64, 4, 2), 1),
	}}
}

// LSTM returns the four gate GEMMs of one LSTM cell with the given input
// and hidden widths, batched over seqLen steps.
func LSTM(name string, input, hidden, seqLen int) Model {
	gate := tensor.Layer{
		Name: name + "_gates", Op: tensor.GEMM,
		Sizes: tensor.Sizes{tensor.N: seqLen, tensor.K: 4 * hidden, tensor.C: input + hidden},
	}.Normalize()
	return Model{Name: name, Layers: []LayerInst{inst(gate, 1)}}
}

// EvaluationModels returns the five models of the paper's Figure 10.
func EvaluationModels() []Model {
	return []Model{ResNet50(), VGG16(), ResNeXt50(), MobileNetV2(), UNet()}
}

// registry maps the zoo's canonical names to constructors. BERT-Base
// uses a 128-token sequence, the zoo's standard benchmark length.
var registry = map[string]func() Model{
	"VGG16":       VGG16,
	"AlexNet":     AlexNet,
	"GoogLeNet":   GoogLeNet,
	"ResNet50":    ResNet50,
	"ResNeXt50":   ResNeXt50,
	"MobileNetV2": MobileNetV2,
	"UNet":        UNet,
	"DCGAN":       DCGAN,
	"BERT-Base":   func() Model { return BERTBase(128) },
}

// Zoo lists the built-in model names in sorted order.
func Zoo() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// zoo builds every registry model once. Layer and edge lists are capped
// at their lengths, so appending to a returned list copies rather than
// writing into the shared array.
var zoo = sync.OnceValue(func() map[string]Model {
	out := make(map[string]Model, len(registry))
	for name, ctor := range registry {
		m := ctor()
		m.Layers = m.Layers[:len(m.Layers):len(m.Layers)]
		m.Edges = m.Edges[:len(m.Edges):len(m.Edges)]
		out[name] = m
	}
	return out
})

// ByName returns the named zoo model, built once and shared by every
// caller, so none may change it; a caller that edits a model edits one
// from its constructor. ok is false for unknown names.
func ByName(name string) (Model, bool) {
	m, ok := zoo()[name]
	return m, ok
}
