// Package dataflows encodes the five dataflow styles of the paper's
// Table 3 — C-P, X-P, YX-P (ShiDianNao-style), YR-P (Eyeriss
// row-stationary style), KC-P (NVDLA-style) — and the adaptive
// per-operator selection of Section 5.1.
package dataflows

import (
	"sync"

	"repro/internal/dataflow"
)

// Sources holds the Table 3 definitions verbatim in the DSL, so they
// parse through the same front end a user would write them in.
var Sources = map[string]string{
	// C-P: input-channel parallelism, large spatial reduction, no local
	// reuse (NLR).
	"C-P": `
		TemporalMap(1,1) K;
		TemporalMap(Sz(R),1) Y;
		TemporalMap(Sz(S),1) X;
		TemporalMap(Sz(R),Sz(R)) R;
		TemporalMap(Sz(S),Sz(S)) S;
		SpatialMap(1,1) C;`,

	// X-P: input-column parallelism, weight-stationary (WS).
	"X-P": `
		TemporalMap(1,1) K;
		TemporalMap(1,1) C;
		TemporalMap(Sz(R),Sz(R)) R;
		TemporalMap(Sz(S),Sz(S)) S;
		TemporalMap(Sz(R),1) Y;
		SpatialMap(Sz(S),1) X;`,

	// YX-P: 2D activation parallelism, output-stationary, motivated by
	// ShiDianNao.
	"YX-P": `
		TemporalMap(1,1) K;
		SpatialMap(Sz(R),1) Y;
		TemporalMap(8+Sz(S)-1,8) X;
		TemporalMap(1,1) C;
		TemporalMap(Sz(R),Sz(R)) R;
		TemporalMap(Sz(S),Sz(S)) S;
		Cluster(8, P);
		SpatialMap(Sz(S),1) X;`,

	// YR-P: activation-row and filter-row parallelism, row-stationary,
	// motivated by Eyeriss.
	"YR-P": `
		TemporalMap(2,2) C;
		TemporalMap(2,2) K;
		SpatialMap(Sz(R),1) Y;
		TemporalMap(Sz(S),1) X;
		TemporalMap(Sz(R),Sz(R)) R;
		TemporalMap(Sz(S),Sz(S)) S;
		Cluster(Sz(R), P);
		SpatialMap(1,1) Y;
		SpatialMap(1,1) R;`,

	// KC-P: input/output-channel parallelism, weight-stationary,
	// motivated by NVDLA.
	"KC-P": `
		SpatialMap(1,1) K;
		TemporalMap(64,64) C;
		TemporalMap(Sz(R),Sz(R)) R;
		TemporalMap(Sz(S),Sz(S)) S;
		TemporalMap(Sz(R),1) Y;
		TemporalMap(Sz(S),1) X;
		Cluster(64, P);
		SpatialMap(1,1) C;`,
}

// Names lists the dataflows in the paper's plotting order.
var Names = []string{"C-P", "X-P", "YX-P", "YR-P", "KC-P"}

// table3 parses Sources once. Each directive list is capped at its
// length, so appending to a returned list copies rather than writing
// into the shared array.
var table3 = sync.OnceValue(func() map[string]dataflow.Dataflow {
	out := make(map[string]dataflow.Dataflow, len(Sources))
	for name, src := range Sources {
		df, err := dataflow.ParseDataflow(name, src)
		if err != nil {
			panic("dataflows: bad built-in definition " + name + ": " + err.Error())
		}
		df.Directives = df.Directives[:len(df.Directives):len(df.Directives)]
		out[name] = df
	}
	return out
})

// Get returns the named Table 3 dataflow, parsed once and shared by
// every caller, so none may change it; a caller that edits one edits its
// Clone. Unknown names panic: the definitions are compile-time constants
// of this package.
func Get(name string) dataflow.Dataflow {
	df, ok := table3()[name]
	if !ok {
		panic("dataflows: unknown dataflow " + name)
	}
	return df
}

// All returns the five dataflows in plotting order, shared as Get's are.
func All() []dataflow.Dataflow {
	out := make([]dataflow.Dataflow, len(Names))
	for i, n := range Names {
		out[i] = Get(n)
	}
	return out
}
