package tensor

import (
	"errors"
	"fmt"
)

// ErrInvalidLayer tags layer-validation failures (non-positive sizes,
// filter exceeding the activation, bad strides) so callers can tell a
// malformed workload apart from an internal fault with
// errors.Is(err, ErrInvalidLayer).
var ErrInvalidLayer = errors.New("invalid layer")

// Kind identifies one of the three tensors that participate in a DNN
// operator: the two operands and the result.
type Kind uint8

// The three tensor kinds.
const (
	Input  Kind = iota // input activations I[N][C][Y][X]
	Weight             // filter weights    W[K][C][R][S]
	Output             // output activations O[N][K][Y'][X']
	NumKinds
)

var kindNames = [NumKinds]string{"Input", "Weight", "Output"}

// String returns the tensor kind name.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// AllKinds lists every tensor kind once.
func AllKinds() []Kind { return []Kind{Input, Weight, Output} }

// OpType classifies the DNN operators the model understands (Table 4 of
// the paper). All are expressed on the seven-dimensional iteration space;
// the type determines dimension coupling and operator bookkeeping.
type OpType uint8

// Supported operator types.
const (
	Conv2D         OpType = iota // dense 2D convolution
	DepthwiseConv                // depth-wise convolution: output coupled to C, not K
	PointwiseConv                // 1x1 convolution (R=S=1)
	FullyConnected               // GEMM: O[N][K] += W[K][C] * I[N][C]
	TransposedConv               // up-scaling convolution (structured input sparsity)
	Pooling                      // window reduction; no weight tensor traffic
	GEMM                         // general matrix multiply (e.g. LSTM gates)
	NumOpTypes
)

var opNames = [NumOpTypes]string{
	"CONV2D", "DWCONV", "PWCONV", "FC", "TRCONV", "POOL", "GEMM",
}

// String returns the canonical operator name used by the DSL.
func (o OpType) String() string {
	if o < NumOpTypes {
		return opNames[o]
	}
	return fmt.Sprintf("OpType(%d)", uint8(o))
}

// ParseOpType converts an operator name (as printed by String) to OpType.
func ParseOpType(s string) (OpType, error) {
	for i, n := range opNames {
		if n == s {
			return OpType(i), nil
		}
	}
	return 0, fmt.Errorf("tensor: unknown operator type %q", s)
}

// Layer describes one DNN layer: its operator type, its seven dimension
// sizes (Y and X in input coordinates), strides, and per-tensor densities
// for the uniform sparsity model of Section 4.4.
type Layer struct {
	Name    string
	Op      OpType
	Sizes   Sizes
	StrideY int
	StrideX int
	// Density holds the fraction of non-zero elements per tensor kind.
	// Zero values are normalized to 1.0 (dense) by Normalize.
	Density [NumKinds]float64
}

// Normalize fills defaults: strides default to 1, densities to 1.0,
// depthwise layers get K tied to 1 logical output per input channel, and
// pointwise/FC layers get trivial window dimensions. It returns the layer
// for chaining.
func (l Layer) Normalize() Layer {
	if l.StrideY == 0 {
		l.StrideY = 1
	}
	if l.StrideX == 0 {
		l.StrideX = 1
	}
	for k := range l.Density {
		if l.Density[k] == 0 {
			l.Density[k] = 1
		}
	}
	for d := Dim(0); d < NumDims; d++ {
		if l.Sizes[d] == 0 {
			l.Sizes[d] = 1
		}
	}
	switch l.Op {
	case DepthwiseConv:
		// One filter per input channel; the K dimension is unused.
		l.Sizes[K] = 1
	case PointwiseConv, FullyConnected, GEMM:
		l.Sizes[R], l.Sizes[S] = 1, 1
	case Pooling:
		l.Sizes[K] = 1
		l.Density[Weight] = 0 // no weight traffic for pooling windows
	}
	return l
}

// MaxCount bounds a layer's MAC count and each tensor's element count:
// 2^53, the largest integer a float64 (and so a JSON number) holds
// exactly. Past it the engine's int64 counts can wrap negative. The
// bound leaves headroom: at 2^55 MACs every Table 3 dataflow on the
// 256-PE preset still yields non-negative counts.
const MaxCount = 1 << 53

// Validate reports an error when the layer dimensions are inconsistent
// (non-positive sizes, window larger than the activation, bad stride),
// a density lies outside [0, 1] or is NaN, or its MAC or tensor element
// count exceeds MaxCount.
func (l Layer) Validate() error {
	if !l.Sizes.Valid() {
		return fmt.Errorf("%w: layer %s: non-positive dimension in %v", ErrInvalidLayer, l.Name, l.Sizes)
	}
	if l.StrideY < 1 || l.StrideX < 1 {
		return fmt.Errorf("%w: layer %s: strides must be >= 1", ErrInvalidLayer, l.Name)
	}
	if l.Sizes[R] > l.Sizes[Y] || l.Sizes[S] > l.Sizes[X] {
		return fmt.Errorf("%w: layer %s: filter %dx%d exceeds activation %dx%d",
			ErrInvalidLayer, l.Name, l.Sizes[R], l.Sizes[S], l.Sizes[Y], l.Sizes[X])
	}
	for k, d := range l.Density {
		// Zero is in range: pooling's weight density is 0 (no weights).
		if !(d >= 0 && d <= 1) {
			return fmt.Errorf("%w: layer %s: %s density %g outside [0, 1]", ErrInvalidLayer, l.Name, Kind(k), d)
		}
	}
	// The weight and output counts are products of a subset of the MAC
	// factors, so bounding the MACs bounds them; the input count is
	// bounded on its own, since it spans Y and X rather than the output
	// extents.
	sz := l.Sizes
	if !productWithin(MaxCount, sz[N], sz[K], sz[C], l.OutY(), l.OutX(), sz[R], sz[S]) ||
		!productWithin(MaxCount, sz[N], sz[C], sz[Y], sz[X]) {
		return fmt.Errorf("%w: layer %s: MAC or tensor element count exceeds 2^53 in %v",
			ErrInvalidLayer, l.Name, l.Sizes)
	}
	return nil
}

// productWithin reports whether the product of the positive factors is
// at most limit, without overflowing.
func productWithin(limit int64, factors ...int) bool {
	p := int64(1)
	for _, f := range factors {
		if int64(f) > limit/p {
			return false
		}
		p *= int64(f)
	}
	return true
}

// OutY returns the number of output rows: floor((Y-R)/strideY)+1.
func (l Layer) OutY() int { return OutSpan(l.Sizes[Y], l.Sizes[R], l.StrideY) }

// OutX returns the number of output columns: floor((X-S)/strideX)+1.
func (l Layer) OutX() int { return OutSpan(l.Sizes[X], l.Sizes[S], l.StrideX) }

// OutSpan computes how many output positions a chunk of `in` input
// positions yields under a window of `win` positions and the given stride:
// floor((in-win)/stride)+1, clamped at zero.
func OutSpan(in, win, stride int) int {
	if in < win {
		return 0
	}
	return (in-win)/stride + 1
}

// EffectiveWindow returns the filter extent that anchors the output
// window of an activation chunk. A chunk large enough to host a complete
// window anchors to the full extent: partial filter chunks then select
// which taps accumulate without moving the outputs (temporal filter
// tiling, the paper's Figure 5(A)). A smaller chunk can only pair with
// its mapped filter chunk — the diagonal co-mapping of the
// row-stationary dataflow (Figure 6), where the outputs shift with both.
func EffectiveWindow(actChunk, filterChunk, filterFull int) int {
	if actChunk >= filterFull {
		return filterFull
	}
	return filterChunk
}

// MACs returns the algorithmic multiply-accumulate count of the dense
// layer: N*K*C*Y'*X'*R*S. Sparsity is not applied here; see EffectiveMACs.
func (l Layer) MACs() int64 {
	return int64(l.Sizes[N]) * int64(l.Sizes[K]) * int64(l.Sizes[C]) *
		int64(l.OutY()) * int64(l.OutX()) * int64(l.Sizes[R]) * int64(l.Sizes[S])
}

// EffectiveMACs scales the algorithmic MAC count by the input and weight
// densities, the uniform-sparsity model of Section 4.4.
func (l Layer) EffectiveMACs() int64 {
	m := float64(l.MACs()) * l.Density[Input] * l.density(Weight)
	return int64(m)
}

// density returns the density of kind k, treating the pooling convention
// (weight density zero = "no weights") as free compute rather than no
// compute.
func (l Layer) density(k Kind) float64 {
	d := l.Density[k]
	if d == 0 {
		return 1
	}
	return d
}

// TensorDims returns the dimensions each tensor of this layer is coupled
// to, per the tensor-analysis engine (Section 4.1, Table 1). For windowed
// tensors the coupling of Output to R/S is resolved dynamically by the
// reuse engine; this function returns the static data-space dimensions.
func (l Layer) TensorDims(k Kind) DimSet {
	switch k {
	case Weight:
		if l.Op == DepthwiseConv || l.Op == Pooling {
			return NewDimSet(C, R, S)
		}
		return NewDimSet(K, C, R, S)
	case Input:
		return NewDimSet(N, C, Y, X)
	case Output:
		if l.Op == DepthwiseConv || l.Op == Pooling {
			return NewDimSet(N, C, Y, X)
		}
		return NewDimSet(N, K, Y, X)
	}
	return 0
}

// TensorSize returns the number of elements of tensor kind k for this
// layer (output uses output coordinates). Iterates the DimSet directly —
// this sits inside the DSE's per-design L2 re-pricing loop, where a
// Dims() slice allocation per call is measurable.
func (l Layer) TensorSize(k Kind) int64 {
	v := int64(1)
	set := l.TensorDims(k)
	for d := Dim(0); d < NumDims; d++ {
		if !set.Has(d) {
			continue
		}
		switch {
		case d == Y && k == Output:
			v *= int64(l.OutY())
		case d == X && k == Output:
			v *= int64(l.OutX())
		default:
			v *= int64(l.Sizes[d])
		}
	}
	return v
}

// ReductionDims returns the dimensions accumulated away when producing the
// output tensor (C, R, S for dense convolution). Advancing one of these
// dimensions accumulates partial sums rather than producing new outputs.
func (l Layer) ReductionDims() DimSet {
	red := NewDimSet(R, S)
	if l.TensorDims(Output).Has(C) {
		return red // depthwise: C survives into the output
	}
	return red.Add(C)
}

// AlgorithmicReuse returns the maximum possible reuse factor of tensor k:
// the number of MACs each element could ideally serve (MACs divided by
// tensor size). The paper plots this as the "algorithmic maximum" series
// in Figure 11.
func (l Layer) AlgorithmicReuse(k Kind) float64 {
	sz := l.TensorSize(k)
	if sz == 0 {
		return 0
	}
	return float64(l.MACs()) / float64(sz)
}
