// Mapping-space search: beyond the five named dataflow styles and their
// tile knobs, the tuner explores free-form mappings — loop orders, tile
// sizes, spatial dimensions, cluster splits — under a cost-model
// evaluation budget, starting from the template winner; the example
// then places the best named mapping on the machine's roofline.
package main

import (
	"fmt"
	"log"

	maestro "repro"
)

func main() {
	layer := maestro.Conv2D("conv", 64, 32, 28, 3, 1)
	cfg := maestro.Accel256()

	fmt.Printf("searching mappings for %s %v on %s\n\n", layer.Name, layer.Sizes, cfg.Name)
	for _, strat := range []struct {
		name string
		opt  maestro.TunerOptions
	}{
		{"templates only", maestro.TunerOptions{}},
		{"exhaustive sub-grid", maestro.TunerOptions{Strategy: maestro.TunerExhaustive, Budget: 600}},
		{"random sampling", maestro.TunerOptions{Strategy: maestro.TunerRandomSample, Budget: 600, Seed: 42}},
		{"hill climbing", maestro.TunerOptions{Strategy: maestro.TunerHillClimb, Budget: 600, Seed: 42}},
	} {
		best, err := maestro.TuneLayer(layer, cfg, strat.opt)
		if err != nil {
			log.Fatalf("%s: %v", strat.name, err)
		}
		fmt.Printf("%-20s %10d cycles (%.1f%% util)\n",
			strat.name, best.Result.Runtime, 100*best.Result.Utilization())
		fmt.Printf("%-20s best: %s\n", "", best.Dataflow.Name)
	}

	// Compare against the named dataflows and show the roofline placement.
	fmt.Println("\nnamed dataflows on the same layer:")
	var fastest *maestro.Result
	for _, name := range maestro.DataflowNames {
		r, err := maestro.Analyze(maestro.DataflowByName(name), layer, cfg)
		if err != nil {
			continue
		}
		fmt.Printf("  %-6s %10d cycles\n", name, r.Runtime)
		if fastest == nil || r.Runtime < fastest.Runtime {
			fastest = r
		}
	}
	rf := maestro.RooflineOf(fastest)
	fmt.Printf("\nroofline of the best named mapping: intensity %.1f MACs/elem, ", rf.Intensity)
	if rf.ComputeBound {
		fmt.Printf("compute-bound (roof %.0f MAC/cyc, achieved %.1f)\n", rf.Roof(), rf.Achieved)
	} else {
		fmt.Printf("bandwidth-bound (roof %.1f MAC/cyc, achieved %.1f)\n", rf.Roof(), rf.Achieved)
	}
}
