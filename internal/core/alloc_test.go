package core

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
)

// maxAllocsPerNode bounds the heap allocations of one cold cluster walk
// per node of its DAG. A walk allocates per (level, sub-problem) node —
// the resolved level, its reuse analysis, its counts or recorded cases —
// and nothing per data-iteration case, so the bound holds for layers
// with few and with many cases alike.
const maxAllocsPerNode = 16

// TestWalkAllocsPerNode checks that Profile and Analyze allocate per
// DAG node, not per data-iteration case, on every zoo layer under every
// Table 3 dataflow that resolves on Accel256.
func TestWalkAllocsPerNode(t *testing.T) {
	cfg := hw.Accel256()
	combos := 0
	var worst float64
	var worstAt string
	for _, model := range models.Zoo() {
		m, ok := models.ByName(model)
		if !ok {
			t.Fatalf("zoo model %s not found", model)
		}
		for _, li := range m.Layers {
			for _, name := range dataflows.Names {
				spec, err := dataflow.Resolve(dataflows.Get(name), li.Layer, cfg.NumPEs)
				if err != nil {
					continue
				}
				prof, err := Profile(spec)
				if err != nil {
					continue
				}
				combos++
				nodes := float64(prof.Nodes())
				at := model + "/" + li.Layer.Name + "/" + name
				for _, walk := range []struct {
					name string
					run  func() error
				}{
					{"Profile", func() error { _, err := Profile(spec); return err }},
					{"Analyze", func() error { _, err := Analyze(spec, cfg); return err }},
				} {
					perNode := testing.AllocsPerRun(1, func() {
						if err := walk.run(); err != nil {
							t.Fatalf("%s %s: %v", walk.name, at, err)
						}
					}) / nodes
					if perNode > worst {
						worst, worstAt = perNode, walk.name+" "+at
					}
					if perNode > maxAllocsPerNode {
						t.Errorf("%s %s: %.1f allocs per DAG node (%d nodes), want <= %d",
							walk.name, at, perNode, prof.Nodes(), maxAllocsPerNode)
					}
				}
			}
		}
	}
	if combos == 0 {
		t.Fatal("no zoo layer resolved")
	}
	t.Logf("%d combinations; worst %.1f allocs per node (%s)", combos, worst, worstAt)
}
