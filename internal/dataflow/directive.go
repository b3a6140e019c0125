// Package dataflow implements the data-centric dataflow representation of
// the MAESTRO paper (Section 3): SpatialMap and TemporalMap directives,
// directive order, and Cluster directives for multi-level PE grouping.
//
// A Dataflow is an ordered directive list. Sizes and offsets may be given
// symbolically relative to layer dimensions (the paper's "Sz(R)" notation),
// so one dataflow describes a family of mappings across layers; Resolve
// binds a dataflow to a concrete layer and PE count (the cluster-analysis
// engine of Section 4.1).
package dataflow

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/tensor"
)

// MapKind distinguishes the two mapping directives.
type MapKind uint8

// Directive kinds.
const (
	Temporal MapKind = iota // TemporalMap: distribute across time steps
	Spatial                 // SpatialMap: distribute across sub-clusters
)

// String returns the DSL keyword for the map kind.
func (k MapKind) String() string {
	if k == Spatial {
		return "SpatialMap"
	}
	return "TemporalMap"
}

// SizeExpr is a size or offset expression: an integer constant plus any
// number of Sz(dim) terms with integer coefficients, e.g. the paper's
// "8+Sz(S)-1" is {Const: 7, Terms: [{S, 1}]}.
type SizeExpr struct {
	Const int
	Terms []SizeTerm
}

// SizeTerm is one Sz(dim) term of a SizeExpr, scaled by Coef.
type SizeTerm struct {
	Dim  tensor.Dim
	Coef int
}

// Lit returns a constant size expression.
func Lit(v int) SizeExpr { return SizeExpr{Const: v} }

// Sz returns the symbolic size of a layer dimension, the paper's "Sz(d)".
func Sz(d tensor.Dim) SizeExpr { return SizeExpr{Terms: []SizeTerm{{Dim: d, Coef: 1}}} }

// Plus returns e + f.
func (e SizeExpr) Plus(f SizeExpr) SizeExpr {
	out := SizeExpr{Const: e.Const + f.Const}
	out.Terms = append(append([]SizeTerm{}, e.Terms...), f.Terms...)
	return out
}

// PlusConst returns e + v.
func (e SizeExpr) PlusConst(v int) SizeExpr { return e.Plus(Lit(v)) }

// Eval computes the expression value for a layer's dimension sizes.
func (e SizeExpr) Eval(sz tensor.Sizes) int {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coef * sz.Get(t.Dim)
	}
	return v
}

// Symbolic reports whether the expression references any Sz(dim) term.
func (e SizeExpr) Symbolic() bool { return len(e.Terms) != 0 }

// SymbolicOf reports whether the expression references Sz(d).
func (e SizeExpr) SymbolicOf(d tensor.Dim) bool {
	for _, t := range e.Terms {
		if t.Dim == d && t.Coef != 0 {
			return true
		}
	}
	return false
}

// String renders the expression in DSL syntax.
func (e SizeExpr) String() string {
	var b strings.Builder
	wrote := false
	for _, t := range e.Terms {
		switch {
		case t.Coef == 1 && !wrote:
			fmt.Fprintf(&b, "Sz(%s)", t.Dim)
		case t.Coef == 1:
			fmt.Fprintf(&b, "+Sz(%s)", t.Dim)
		case t.Coef == -1:
			fmt.Fprintf(&b, "-Sz(%s)", t.Dim)
		case t.Coef < 0:
			fmt.Fprintf(&b, "-%d*Sz(%s)", -t.Coef, t.Dim)
		case wrote:
			fmt.Fprintf(&b, "+%d*Sz(%s)", t.Coef, t.Dim)
		default:
			fmt.Fprintf(&b, "%d*Sz(%s)", t.Coef, t.Dim)
		}
		wrote = true
	}
	switch {
	case !wrote:
		fmt.Fprintf(&b, "%d", e.Const)
	case e.Const > 0:
		fmt.Fprintf(&b, "+%d", e.Const)
	case e.Const < 0:
		fmt.Fprintf(&b, "%d", e.Const)
	}
	return b.String()
}

// Directive is one element of a dataflow description: a mapping directive
// or a cluster boundary.
type Directive struct {
	// IsCluster marks a Cluster(n) directive; Size then holds n (possibly
	// symbolic, e.g. Cluster(Sz(R)) for Eyeriss-style row clusters) and the
	// remaining fields are unused.
	IsCluster bool
	Kind      MapKind
	Dim       tensor.Dim
	Size      SizeExpr
	Offset    SizeExpr
}

// TMap builds a TemporalMap(size, offset) dim directive.
func TMap(size, offset SizeExpr, d tensor.Dim) Directive {
	return Directive{Kind: Temporal, Dim: d, Size: size, Offset: offset}
}

// SMap builds a SpatialMap(size, offset) dim directive.
func SMap(size, offset SizeExpr, d tensor.Dim) Directive {
	return Directive{Kind: Spatial, Dim: d, Size: size, Offset: offset}
}

// ClusterOf builds a Cluster(n) directive.
func ClusterOf(n SizeExpr) Directive { return Directive{IsCluster: true, Size: n} }

// String renders the directive in DSL syntax.
func (d Directive) String() string {
	if d.IsCluster {
		return fmt.Sprintf("Cluster(%s);", d.Size)
	}
	return fmt.Sprintf("%s(%s,%s) %s;", d.Kind, d.Size, d.Offset, d.Dim)
}

// Dataflow is an ordered directive list (outermost first), optionally
// named. It is the unit the paper calls "a dataflow": a schedule family
// whose concrete tile bounds bind at resolution time.
type Dataflow struct {
	Name       string
	Directives []Directive
}

// Clone returns a deep copy of the dataflow: changing the copy's
// directives or their size terms leaves df untouched.
func (df Dataflow) Clone() Dataflow {
	out := Dataflow{Name: df.Name, Directives: make([]Directive, len(df.Directives))}
	for i, d := range df.Directives {
		d.Size.Terms = slices.Clone(d.Size.Terms)
		d.Offset.Terms = slices.Clone(d.Offset.Terms)
		out.Directives[i] = d
	}
	return out
}

// String renders the dataflow as a DSL Dataflow block body.
func (df Dataflow) String() string {
	var b strings.Builder
	for _, d := range df.Directives {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Levels splits the directive list into cluster levels: level 0 holds the
// directives above the first Cluster directive, and so on. The returned
// cluster sizes have one entry per Cluster directive (len(levels)-1).
// Each level is a capped sub-slice of df.Directives, so the levels share
// the list's backing array and an append to one cannot overwrite the
// next.
func (df Dataflow) Levels() (levels [][]Directive, clusterSizes []SizeExpr) {
	dirs := df.Directives
	start := 0
	for i, d := range dirs {
		if d.IsCluster {
			levels = append(levels, dirs[start:i:i])
			clusterSizes = append(clusterSizes, d.Size)
			start = i + 1
		}
	}
	levels = append(levels, dirs[start:len(dirs):len(dirs)])
	return levels, clusterSizes
}
