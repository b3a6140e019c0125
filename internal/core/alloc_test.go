package core

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
)

// A warm cluster walk allocates what escapes it and nothing more.
// Profile allocates its sealed arena: the LayerProfile and the five
// arrays seal carves it from. Analyze adds Price's Result arena: the
// Result and its three tables. The memo, the recording buffers and each
// cluster depth's resolved level and reuse analysis are pooled scratch,
// so the count grows with neither the DAG's nodes nor its cases.
const (
	profileAllocs = 6
	analyzeAllocs = profileAllocs + 4
)

// allocTries is the pool-miss slack. A walk whose pool Get misses
// rebuilds its scratch: the profiler and its memo, and per cluster
// depth a level's maps and spatial list and an analysis's loop nest,
// about a dozen allocations for a two-level dataflow. A garbage
// collection can empty the pools between the warm-up walk and the
// measured one, and the race detector drops a quarter of all Puts on
// purpose, so under it an Analyze (two pools) measures clean in about
// nine tries of sixteen. A miss only adds allocations, so each walk is
// held to the fewest of up to allocTries measurements; under the race
// detector all of them miss for one walk in about 10^14.
const allocTries = 40

// TestWalkAllocsPerWalk checks that Profile and Analyze (Profile then
// Price) allocate per walk, not per DAG node or data-iteration case,
// on every zoo layer under every Table 3 dataflow that resolves on
// Accel256.
func TestWalkAllocsPerWalk(t *testing.T) {
	cfg := hw.Accel256()
	combos := 0
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
				at := model + "/" + li.Layer.Name + "/" + name
				for _, walk := range []struct {
					name string
					want float64
					run  func() error
				}{
					{"Profile", profileAllocs, func() error { _, err := Profile(spec); return err }},
					{"Analyze", analyzeAllocs, func() error { _, err := Analyze(spec, cfg); return err }},
				} {
					got := fewestAllocs(func() {
						if err := walk.run(); err != nil {
							t.Fatalf("%s %s: %v", walk.name, at, err)
						}
					}, walk.want)
					if got > walk.want {
						t.Errorf("%s %s: %.0f allocations (%d nodes, %d cases), want <= %.0f",
							walk.name, at, got, prof.Nodes(), prof.Cases(), walk.want)
					}
				}
			}
		}
	}
	if combos == 0 {
		t.Fatal("no zoo layer resolved")
	}
	t.Logf("%d combinations", combos)
}

// fewestAllocs returns the fewest allocations of one run of f over up
// to allocTries measurements, stopping at the first within want.
func fewestAllocs(f func(), want float64) float64 {
	best := testing.AllocsPerRun(1, f)
	for try := 1; try < allocTries && best > want; try++ {
		best = min(best, testing.AllocsPerRun(1, f))
	}
	return best
}
