package main

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/serve"
)

// In-process references for the HTTP answers: each computes what the
// node should have answered straight from the library, with one worker
// and no shared cache.

// refHW applies the request's preset and the overrides the benchmark
// sends, as the service does.
func refHW(hs serve.HWSpec) (hw.Config, error) {
	ctor, ok := presets[hs.Preset]
	if !ok {
		return hw.Config{}, fmt.Errorf("unknown preset %q", hs.Preset)
	}
	cfg := ctor()
	if hs.L2Bytes != 0 {
		cfg.L2Size = hs.L2Bytes
	}
	if hs.OffchipBandwidth != 0 {
		cfg.OffchipBandwidth = hs.OffchipBandwidth
	}
	return cfg.Normalize(), nil
}

// checkAnalyze compares one analysis answer with the library's.
func checkAnalyze(req serve.AnalyzeRequest, got *serve.AnalyzeResponse, c *checker) error {
	layer, err := serve.ResolveLayerSpec(req.Layer)
	if err != nil {
		return err
	}
	cfg, err := refHW(req.HW)
	if err != nil {
		return err
	}
	r, err := core.AnalyzeDataflow(dataflows.Get(req.Dataflow.Name), layer, cfg)
	if err != nil {
		return err
	}
	e := r.EnergyDefault()
	want := [...]any{r.Runtime, r.OnChipRuntime, r.MACs, r.UsedPEs, r.DRAMReads, r.DRAMWrites, r.L2Spill, r.Bottleneck, e.Total()}
	have := [...]any{got.Runtime, got.OnChipRuntime, got.MACs, got.UsedPEs, got.DRAMReads, got.DRAMWrites, got.L2Spill, got.Bottleneck, got.Energy.Total}
	if want != have {
		return fmt.Errorf("%s/%s: served %v, library %v", layer.Name, req.Dataflow.Name, have, want)
	}
	c.record(layer.Name, req.Dataflow.Name, r.Runtime, bits(e.Total()), r.DRAMReads, r.DRAMWrites)
	return nil
}

// dseSpace is the space a DSE request sweeps, as the service builds it.
func dseSpace(req serve.DSERequest) (dse.Space, error) {
	layer, err := serve.ResolveLayerSpec(req.Layer)
	if err != nil {
		return dse.Space{}, err
	}
	req = req.WithDefaults()
	tmpl := dseTemplate(req.Template)
	tmpl.P1, tmpl.P2 = req.P1, req.P2
	return dse.Space{
		Layer: layer, Template: tmpl,
		PEs: req.PEs, BWs: req.BWs, L1Grid: req.L1Grid, L2Grid: req.L2Grid,
		AreaBudgetMM2: req.AreaBudgetMM2, PowerBudgetMW: req.PowerBudgetMW,
		Cost: hw.Default28nm(), Workers: 1,
	}, nil
}

// truthFront is the canonical Pareto front of a local exploration.
func truthFront(req serve.DSERequest) ([]dse.Point, dse.Stats, error) {
	sp, err := dseSpace(req)
	if err != nil {
		return nil, dse.Stats{}, err
	}
	pts, st := dse.Explore(sp)
	front := dse.Pareto(pts)
	dse.SortPoints(front)
	return front, st, nil
}

// checkFront compares a served or fleet-merged front with the local one.
func checkFront(req serve.DSERequest, front []dse.Point, explored, valid int64, c *checker) error {
	want, st, err := truthFront(req)
	if err != nil {
		return err
	}
	got := append([]dse.Point(nil), front...)
	dse.SortPoints(got)
	if len(got) == 0 && len(want) == 0 {
		got, want = nil, nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s/%s: front of %d points differs from the local %d", req.Layer.Name, req.Template, len(got), len(want))
	}
	if explored != st.Explored || valid != st.Valid {
		return fmt.Errorf("%s/%s: explored/valid %d/%d, local %d/%d", req.Layer.Name, req.Template, explored, valid, st.Explored, st.Valid)
	}
	for _, p := range want {
		c.record(p.NumPEs, p.P1, p.P2, p.BW, p.L1Bytes, p.L2Bytes, p.Runtime, bits(p.EnergyPJ))
	}
	return nil
}

func pointOf(j serve.DSEPointJSON) dse.Point {
	return dse.Point{
		NumPEs: j.NumPEs, BW: j.BW, P1: j.P1, P2: j.P2,
		L1Bytes: j.L1Bytes, L2Bytes: j.L2Bytes,
		AreaMM2: j.AreaMM2, PowerMW: j.PowerMW,
		Runtime: j.Runtime, Throughput: j.Throughput,
		EnergyPJ: j.EnergyPJ, EDP: j.EDP,
	}
}

// checkFusion compares fusion points with a local sweep of the plane.
func checkFusion(req serve.FusionRequest, got []dse.FusionPoint, c *checker) error {
	m, ok := models.ByName(req.Model)
	if !ok {
		return fmt.Errorf("unknown model %q", req.Model)
	}
	cfg, err := refHW(req.HW)
	if err != nil {
		return err
	}
	req = req.WithDefaults()
	want, _, err := dse.ExploreFusion(dse.FusionSpace{
		Model: m, Cfg: cfg, Dataflow: req.Dataflow,
		L2Grid: req.L2Grid, MaxGroupLayers: req.MaxGroupLayers, Workers: 1,
	})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s/%s: %d fusion points differ from the local %d", req.Model, req.Dataflow, len(got), len(want))
	}
	for _, p := range want {
		c.record(p.L2Bytes, p.MaxGroupLayers, p.FusedGroups, p.DRAMTraffic, p.TotalCycles, bits(p.EnergyPJ))
	}
	return nil
}

func fusionPointOf(j serve.FusionPointJSON) dse.FusionPoint {
	return dse.FusionPoint{
		L2Bytes: j.L2Bytes, MaxGroupLayers: j.MaxGroupLayers, FusedGroups: j.FusedGroups,
		DRAMTraffic: j.DRAMTraffic, BaselineDRAM: j.BaselineDRAM, DRAMSaved: j.DRAMSaved,
		ActTraffic: j.ActTraffic, BaselineAct: j.BaselineAct,
		TotalCycles: j.TotalCycles, EnergyPJ: j.EnergyPJ,
	}
}
