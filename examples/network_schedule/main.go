// Network scheduling: run a whole model through the scheduler, which
// keeps activations resident in the shared L2 between layers and pins
// residual sources — the inter-layer effects the paper's Table 4 lists
// for residual links. The example compares DRAM traffic with and
// without residency on a ResNet-style block chain: without it, the
// residual's reader fetches the source from DRAM again.
package main

import (
	"fmt"
	"log"

	maestro "repro"
)

func main() {
	// A four-layer residual block: 1x1 reduce, 3x3, 1x1 expand, next 1x1.
	mk := func(name string, k, c, out, r int) maestro.LayerInst {
		l := maestro.Conv2D(name, k, c, out, r, 1)
		return maestro.LayerInst{Layer: l, Count: 1, Class: maestro.ClassifyLayer(l)}
	}
	model := maestro.Model{Name: "res-block", Layers: []maestro.LayerInst{
		mk("reduce", 64, 256, 28, 1),
		mk("conv3x3", 64, 64, 28, 3),
		mk("expand", 256, 64, 28, 1),
		mk("next", 64, 256, 28, 1),
	}}
	// The block input (layer 0's input == residual source) is re-added at
	// layer 3; model it as layer 0's output feeding layer 3.
	residuals := []maestro.ResidualEdge{{From: 0, To: 3}}
	cfg := maestro.Accel256()
	fixed := func(maestro.Layer) (maestro.Dataflow, bool) {
		return maestro.DataflowByName("KC-P"), true
	}

	runs := []struct {
		name string
		opt  maestro.NetOptions
	}{
		{"no residency (layer-by-layer DRAM round trips)", maestro.NetOptions{Dataflow: fixed}},
		{"no residency, residual re-fetched", maestro.NetOptions{Dataflow: fixed, Residuals: residuals}},
		{"1 MB L2 residency", maestro.NetOptions{Dataflow: fixed, L2Bytes: 1 << 20}},
		{"1 MB L2 + residual pinned", maestro.NetOptions{Dataflow: fixed, L2Bytes: 1 << 20, Residuals: residuals}},
		{"tuned mappings + residency", maestro.NetOptions{L2Bytes: 1 << 20, Residuals: residuals}},
	}
	for _, run := range runs {
		s, err := maestro.ScheduleNetwork(model, cfg, run.opt)
		if err != nil {
			log.Fatalf("%s: %v", run.name, err)
		}
		fmt.Printf("%-46s %9d cycles  %9d DRAM elems  %.1f uJ\n",
			run.name, s.TotalCycles, s.DRAMTraffic, s.EnergyPJ/1e6)
	}

	fmt.Println("\nper-layer residency of the pinned schedule (one group per layer):")
	s, err := maestro.ScheduleNetwork(model, cfg, runs[3].opt)
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range s.Groups {
		fmt.Printf("  %-8s in-resident=%-5v out-resident=%-5v pinned=%dB dram=%d\n",
			g.Members[0].Inst.Layer.Name, g.InputResident, g.OutputResident, g.RetainedBytes,
			g.DRAMReads+g.DRAMWrites)
	}
}
