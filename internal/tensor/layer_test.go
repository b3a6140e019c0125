package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func conv(name string, k, c, y, x, r, s, stride int) Layer {
	return Layer{
		Name: name, Op: Conv2D,
		Sizes:   Sizes{N: 1, K: k, C: c, Y: y, X: x, R: r, S: s},
		StrideY: stride, StrideX: stride,
	}.Normalize()
}

func TestParseDim(t *testing.T) {
	for d := Dim(0); d < NumDims; d++ {
		got, err := ParseDim(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDim(%q) = %v, %v", d.String(), got, err)
		}
	}
	for _, alias := range []struct {
		s string
		d Dim
	}{{"Y'", Y}, {"X'", X}} {
		got, err := ParseDim(alias.s)
		if err != nil || got != alias.d {
			t.Errorf("ParseDim(%q) = %v, %v; want %v", alias.s, got, err, alias.d)
		}
	}
	if _, err := ParseDim("Z"); err == nil {
		t.Error("ParseDim(Z) succeeded; want error")
	}
}

func TestDimWindow(t *testing.T) {
	if w, ok := Y.Window(); !ok || w != R {
		t.Errorf("Y.Window() = %v, %v; want R, true", w, ok)
	}
	if w, ok := X.Window(); !ok || w != S {
		t.Errorf("X.Window() = %v, %v; want S, true", w, ok)
	}
	for _, d := range []Dim{N, K, C, R, S} {
		if _, ok := d.Window(); ok {
			t.Errorf("%v.Window() reported a window", d)
		}
	}
}

func TestDimSet(t *testing.T) {
	s := NewDimSet(K, C, R, S)
	if !s.Has(K) || !s.Has(S) || s.Has(N) || s.Has(Y) {
		t.Errorf("membership wrong for %v", s)
	}
	if got := s.String(); got != "{K,C,R,S}" {
		t.Errorf("String() = %q", got)
	}
	if !s.Intersects(NewDimSet(C)) || s.Intersects(NewDimSet(N, X)) {
		t.Error("Intersects wrong")
	}
	if NewDimSet().String() != "{}" || !NewDimSet().Empty() {
		t.Error("empty set misbehaves")
	}
}

func TestOutSpan(t *testing.T) {
	cases := []struct{ in, win, stride, want int }{
		{224, 3, 1, 222},
		{226, 3, 1, 224},
		{227, 11, 4, 55}, // AlexNet CONV1
		{5, 3, 2, 2},
		{2, 3, 1, 0}, // chunk smaller than window
		{3, 3, 1, 1},
		{8, 3, 1, 6}, // Figure 1 example
	}
	for _, c := range cases {
		if got := OutSpan(c.in, c.win, c.stride); got != c.want {
			t.Errorf("OutSpan(%d,%d,%d) = %d; want %d", c.in, c.win, c.stride, got, c.want)
		}
	}
}

func TestLayerFigure1(t *testing.T) {
	// The paper's Figure 1: N=2, K=4, C=6, Y=X=8, R=S=3 => Y'=X'=6.
	l := Layer{Op: Conv2D, Sizes: Sizes{N: 2, K: 4, C: 6, Y: 8, X: 8, R: 3, S: 3}}.Normalize()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.OutY() != 6 || l.OutX() != 6 {
		t.Fatalf("out = %dx%d; want 6x6", l.OutY(), l.OutX())
	}
	wantMACs := int64(2 * 4 * 6 * 6 * 6 * 3 * 3)
	if l.MACs() != wantMACs {
		t.Fatalf("MACs = %d; want %d", l.MACs(), wantMACs)
	}
	if got := l.TensorSize(Output); got != 2*4*6*6 {
		t.Fatalf("output size = %d; want %d", got, 2*4*6*6)
	}
	if got := l.TensorSize(Input); got != 2*6*8*8 {
		t.Fatalf("input size = %d; want %d", got, 2*6*8*8)
	}
	if got := l.TensorSize(Weight); got != 4*6*3*3 {
		t.Fatalf("weight size = %d; want %d", got, 4*6*3*3)
	}
}

func TestCouplingTable1(t *testing.T) {
	// Dense convolution coupling, per Table 1 of the paper.
	l := conv("c", 64, 64, 56, 56, 3, 3, 1)
	if got, want := l.TensorDims(Weight), NewDimSet(K, C, R, S); got != want {
		t.Errorf("weight coupling = %v; want %v", got, want)
	}
	if got, want := l.TensorDims(Input), NewDimSet(N, C, Y, X); got != want {
		t.Errorf("input coupling = %v; want %v", got, want)
	}
	if got, want := l.TensorDims(Output), NewDimSet(N, K, Y, X); got != want {
		t.Errorf("output coupling = %v; want %v", got, want)
	}
	if got, want := l.ReductionDims(), NewDimSet(C, R, S); got != want {
		t.Errorf("reduction dims = %v; want %v", got, want)
	}
}

func TestDepthwiseCoupling(t *testing.T) {
	// Section 4.1: "in depth-wise convolutions, output activation is not
	// coupled with the output-channel dimension but coupled with the input
	// channel dimension".
	l := Layer{Op: DepthwiseConv, Sizes: Sizes{N: 1, K: 1, C: 32, Y: 112, X: 112, R: 3, S: 3}}.Normalize()
	if l.TensorDims(Output).Has(K) || !l.TensorDims(Output).Has(C) {
		t.Errorf("depthwise output coupling = %v", l.TensorDims(Output))
	}
	if l.TensorDims(Weight).Has(K) {
		t.Errorf("depthwise weight coupling = %v", l.TensorDims(Weight))
	}
	if l.ReductionDims().Has(C) {
		t.Errorf("depthwise reduction dims = %v", l.ReductionDims())
	}
}

func TestNormalizeDefaults(t *testing.T) {
	l := Layer{Op: FullyConnected, Sizes: Sizes{N: 1, K: 1000, C: 4096}}.Normalize()
	if l.Sizes[Y] != 1 || l.Sizes[R] != 1 || l.StrideY != 1 {
		t.Errorf("FC normalize: %+v", l)
	}
	if l.Density[Input] != 1 {
		t.Errorf("density default = %v", l.Density)
	}
	if l.MACs() != 1000*4096 {
		t.Errorf("FC MACs = %d", l.MACs())
	}
}

func TestAlgorithmicReuse(t *testing.T) {
	l := conv("c", 64, 64, 58, 58, 3, 3, 1)
	// Each weight is reused across N*Y'*X' MACs.
	want := float64(l.MACs()) / float64(64*64*3*3)
	if got := l.AlgorithmicReuse(Weight); got != want {
		t.Errorf("weight reuse = %v; want %v", got, want)
	}
}

func TestValidateRejects(t *testing.T) {
	sz := Sizes{N: 1, K: 8, C: 8, Y: 8, X: 8, R: 3, S: 3}
	for _, tc := range []struct {
		name string
		l    Layer
		ok   bool
	}{
		{"filter larger than activation", Layer{Op: Conv2D, Sizes: Sizes{N: 1, K: 8, C: 8, Y: 2, X: 2, R: 3, S: 3}}.Normalize(), false},
		{"zero sizes", Layer{Op: Conv2D}, false},
		// Overflows int64: the MAC count wrapped to -4080774308857643008.
		{"MACs overflow int64", Layer{Op: Conv2D, Sizes: Sizes{N: 1, K: 4_000_000, C: 4_000_000, Y: 40_000, X: 40_000, R: 1, S: 1}}.Normalize(), false},
		{"MACs exactly 2^53", Layer{Op: Conv2D, Sizes: Sizes{N: 1, K: 1 << 26, C: 1 << 27, Y: 1, X: 1, R: 1, S: 1}}.Normalize(), true},
		{"MACs 2^53+1", Layer{Op: Conv2D, Sizes: Sizes{N: 1, K: 321, C: 28_059_810_762_433, Y: 1, X: 1, R: 1, S: 1}}.Normalize(), false},
		// A stride of 2^20 keeps the MACs at 2^14 while the input spans
		// 2^54 elements.
		{"input count over 2^53", Layer{Op: Conv2D, Sizes: Sizes{N: 1, K: 1, C: 1 << 14, Y: 1 << 20, X: 1 << 20, R: 1, S: 1}, StrideY: 1 << 20, StrideX: 1 << 20}.Normalize(), false},
		// A negative input density priced a 200 with negative utilization.
		{"negative input density", Layer{Op: Conv2D, Sizes: sz, Density: [NumKinds]float64{Input: -1}}.Normalize(), false},
		{"weight density over 1", Layer{Op: Conv2D, Sizes: sz, Density: [NumKinds]float64{Weight: 1.5}}.Normalize(), false},
		{"NaN output density", Layer{Op: Conv2D, Sizes: sz, Density: [NumKinds]float64{Output: math.NaN()}}.Normalize(), false},
		{"sparse input", Layer{Op: Conv2D, Sizes: sz, Density: [NumKinds]float64{Input: 0.25}}.Normalize(), true},
		{"pooling's zero weight density", Layer{Op: Pooling, Sizes: sz}.Normalize(), true},
	} {
		err := tc.l.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrInvalidLayer) {
			t.Errorf("%s: Validate = %v; want ErrInvalidLayer", tc.name, err)
		}
	}
}

// Property: OutSpan is monotone in the input extent and consistent with
// exhaustively counting valid window placements.
func TestOutSpanProperty(t *testing.T) {
	f := func(in, win, stride uint8) bool {
		i, w, d := int(in%200)+1, int(win%7)+1, int(stride%4)+1
		count := 0
		for p := 0; p+w <= i; p += d {
			count++
		}
		return OutSpan(i, w, d) == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: total MACs equal output volume times reduction volume.
func TestMACsProperty(t *testing.T) {
	f := func(k, c, y, r uint8) bool {
		l := conv("p", int(k%32)+1, int(c%32)+1, int(y%60)+int(r%3)+1+3, int(y%40)+int(r%3)+1+3, int(r%3)+1, int(r%3)+1, 1)
		if l.Validate() != nil {
			return true // skip invalid shapes
		}
		return l.MACs() == l.TensorSize(Output)*int64(l.Sizes[C])*int64(l.Sizes[R])*int64(l.Sizes[S])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEffectiveWindow(t *testing.T) {
	cases := []struct{ act, chunk, full, want int }{
		{6, 1, 6, 6},  // full window staged: anchored
		{6, 3, 6, 6},  // partial taps, anchored
		{3, 3, 3, 3},  // fully mapped filter
		{1, 1, 3, 1},  // diagonal co-mapping (Eyeriss)
		{2, 1, 3, 1},  // still too small to host the window
		{10, 3, 3, 3}, // big chunk, full filter
	}
	for _, c := range cases {
		if got := EffectiveWindow(c.act, c.chunk, c.full); got != c.want {
			t.Errorf("EffectiveWindow(%d,%d,%d) = %d; want %d", c.act, c.chunk, c.full, got, c.want)
		}
	}
}

func TestSizesVolumeAndString(t *testing.T) {
	z := Sizes{N: 2, K: 3, C: 4, Y: 5, X: 6, R: 7, S: 8}
	if z.Volume() != 2*3*4*5*6*7*8 {
		t.Errorf("volume = %d", z.Volume())
	}
	if z.String() != "N2 K3 C4 Y5 X6 R7 S8" {
		t.Errorf("string = %q", z.String())
	}
	if (Sizes{}).Valid() {
		t.Error("zero sizes valid")
	}
	if !z.Valid() {
		t.Error("positive sizes invalid")
	}
	if z.Set(K, 9).Get(K) != 9 || z.Get(K) != 3 {
		t.Error("Set must copy")
	}
}

func TestEffectiveMACsPooling(t *testing.T) {
	// Pooling's weight-density-zero convention means "no weight traffic",
	// not "no compute".
	l := Layer{Op: Pooling, Sizes: Sizes{N: 1, C: 8, Y: 10, X: 10, R: 2, S: 2},
		StrideY: 2, StrideX: 2}.Normalize()
	if l.EffectiveMACs() != l.MACs() {
		t.Errorf("pooling effective %d != dense %d", l.EffectiveMACs(), l.MACs())
	}
	if l.MACs() != int64(8*5*5*4) {
		t.Errorf("pooling MACs = %d", l.MACs())
	}
}
