package netsched

import (
	"fmt"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// chain builds a small three-layer CNN whose activations fit in a
// megabyte-class L2.
func chain() models.Model {
	mk := func(name string, k, c, out int) models.LayerInst {
		in := out + 2
		l := tensor.Layer{
			Name: name, Op: tensor.Conv2D,
			Sizes: tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c, tensor.Y: in, tensor.X: in, tensor.R: 3, tensor.S: 3},
		}.Normalize()
		return models.LayerInst{Layer: l, Count: 1, Class: models.Classify(l)}
	}
	return models.Model{Name: "chain", Layers: []models.LayerInst{
		mk("A", 16, 8, 28),
		mk("B", 16, 16, 28),
		mk("C", 16, 16, 28),
		mk("D", 16, 16, 28),
	}}
}

// kcp is KC-P parsed once, so the schedules and benchmarks below time
// the scheduler rather than the dataflow parser.
var kcp = dataflows.Get("KC-P")

func fixedKCP(tensor.Layer) (dataflow.Dataflow, bool) {
	return kcp, true
}

func TestResidencySavesDRAM(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	noRes, err := Run(m, cfg, Options{Dataflow: fixedKCP})
	if err != nil {
		t.Fatal(err)
	}
	withRes, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if withRes.DRAMTraffic >= noRes.DRAMTraffic {
		t.Errorf("residency did not cut DRAM traffic: %d vs %d",
			withRes.DRAMTraffic, noRes.DRAMTraffic)
	}
	if withRes.DRAMSaved == 0 {
		t.Error("no savings recorded")
	}
	if withRes.EnergyPJ >= noRes.EnergyPJ {
		t.Errorf("residency did not cut energy: %v vs %v", withRes.EnergyPJ, noRes.EnergyPJ)
	}
	// Middle layers should see both input and output resident.
	mid := withRes.Groups[1]
	if !mid.InputResident || !mid.OutputResident {
		t.Errorf("middle layer residency: in=%v out=%v", mid.InputResident, mid.OutputResident)
	}
}

func TestTinyL2DisablesResidency(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	s, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, gp := range s.Groups {
		if gp.InputResident || gp.OutputResident {
			t.Errorf("layer %s resident despite 4 KB L2", gp.Members[0].Inst.Layer.Name)
		}
	}
}

func TestResidualPinning(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	// Skip connection from layer 0's output to layer 3.
	s, err := Run(m, cfg, Options{
		Dataflow: fixedKCP, L2Bytes: 1 << 20,
		Residuals: []Edge{{From: 0, To: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Layers 1 and 2 run with the residual pinned.
	if s.Groups[1].RetainedBytes == 0 || s.Groups[2].RetainedBytes == 0 {
		t.Errorf("residual not pinned: held=%d,%d", s.Groups[1].RetainedBytes, s.Groups[2].RetainedBytes)
	}
	if s.Groups[3].RetainedBytes != 0 {
		t.Errorf("residual still pinned at its consumer: %d", s.Groups[3].RetainedBytes)
	}
	// Pinning shrinks retention capacity: DRAM traffic must not drop
	// below the unpinned schedule's.
	free, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.DRAMTraffic < free.DRAMTraffic {
		t.Errorf("pinned schedule moved less DRAM (%d) than free (%d)", s.DRAMTraffic, free.DRAMTraffic)
	}
}

// TestCrowdedL2DeniesResidency pins the spill path: when a retained
// activation crowds out the next layer's staging tiles, the consumer
// must NOT be treated as input-resident, and the producer's discounted
// DRAM write must be charged back when the tensor is evicted. A
// regression here silently understates DRAM traffic for residual-heavy
// models at small L2 budgets.
func TestCrowdedL2DeniesResidency(t *testing.T) {
	mk := func(name string, k, c, yx, rs int) models.LayerInst {
		l := tensor.Layer{
			Name: name, Op: tensor.Conv2D,
			Sizes: tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c, tensor.Y: yx, tensor.X: yx, tensor.R: rs, tensor.S: rs},
		}.Normalize()
		return models.LayerInst{Layer: l, Count: 1, Class: models.Classify(l)}
	}
	m := models.Model{Name: "crowd", Layers: []models.LayerInst{
		mk("small", 8, 8, 28, 3),
		mk("big", 32, 64, 56, 5),
	}}
	cfg := hw.Accel256()
	// Probe the staging requirements, then pick an L2 that holds layer
	// 0's staging plus its whole output but not layer 1's staging beside
	// that output.
	probe, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	reqA := probe.Groups[0].Members[0].Result.L2ReqBytes()
	reqB := probe.Groups[1].Members[0].Result.L2ReqBytes()
	outA := scaledElems(m.Layers[0].Layer, tensor.Output) * int64(cfg.ElemBytes)
	if reqA+outA >= reqB {
		t.Fatalf("test construction broken: need reqA+outA < reqB, got reqA=%d outA=%d reqB=%d", reqA, outA, reqB)
	}
	s, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: reqA + outA})
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Groups[0], s.Groups[1]
	if b.InputResident {
		t.Error("crowded layer granted input residency; its input must re-fetch from DRAM")
	}
	if r := b.Members[0].Result; b.DRAMReads != r.DRAMReads {
		t.Errorf("crowded layer's DRAM reads discounted: plan %d vs result %d", b.DRAMReads, r.DRAMReads)
	}
	if a.OutputResident {
		t.Error("evicted output still marked resident")
	}
	if s.DRAMSaved != 0 {
		t.Errorf("schedule claims %d elements saved; the spilled output must be charged back", s.DRAMSaved)
	}
}

// TestPartialDataflowFallsBackToTuner pins the promise cmd/maestro makes
// for partially annotated network files: a layer whose Dataflow callback
// reports ok=false is auto-tuned rather than failing the schedule.
func TestPartialDataflowFallsBackToTuner(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	partial := func(l tensor.Layer) (dataflow.Dataflow, bool) {
		if l.Name == "B" {
			return dataflow.Dataflow{}, false
		}
		return dataflows.Get("KC-P"), true
	}
	s, err := Run(m, cfg, Options{Dataflow: partial, L2Bytes: 1 << 20})
	if err != nil {
		t.Fatalf("partially annotated network failed to schedule: %v", err)
	}
	if len(s.Groups[1].Members[0].Dataflow.Directives) == 0 {
		t.Error("unannotated layer got no tuned dataflow")
	}
}

func TestEdgeValidation(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	for _, bad := range []Edge{{From: 2, To: 3}, {From: -1, To: 3}, {From: 0, To: 99}} {
		if _, err := Run(m, cfg, Options{Dataflow: fixedKCP, Residuals: []Edge{bad}}); err == nil {
			t.Errorf("edge %+v accepted", bad)
		}
	}
}

func TestTunedSchedule(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	tuned, err := Run(m, cfg, Options{L2Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.TotalCycles > fixed.TotalCycles {
		t.Errorf("tuned schedule (%d) slower than fixed KC-P (%d)",
			tuned.TotalCycles, fixed.TotalCycles)
	}
}

// TestScheduleInvariants holds both schedulers to the accounting every
// schedule promises, on chain() and every zoo model under KC-P at
// 256 KiB, 1 MiB and 4 MiB: DRAMSaved is BaselineDRAM - DRAMTraffic,
// and every group's claims split by tensor (ActReads + WeightReads =
// DRAMReads, ActWrites = DRAMWrites). Run's residency must follow the
// graph: every producer of an input-resident layer kept its output
// resident, and an output-resident layer has a later reader.
func TestScheduleInvariants(t *testing.T) {
	ms := []models.Model{chain()}
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		ms = append(ms, m)
	}
	cfg := hw.Accel256()
	for _, m := range ms {
		g, err := BuildGraph(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, l2 := range []int64{256 << 10, 1 << 20, 4 << 20} {
			opt := Options{Dataflow: fixedKCP, L2Bytes: l2}
			run, err := Run(m, cfg, opt)
			if err != nil {
				t.Fatalf("%s/%d: %v", m.Name, l2, err)
			}
			fused, err := RunFused(m, cfg, FuseOptions{Options: opt})
			if err != nil {
				t.Fatalf("%s/%d: %v", m.Name, l2, err)
			}
			for _, s := range []*FusedSchedule{run, fused} {
				at := fmt.Sprintf("%s/%d fused=%v", m.Name, l2, s == fused)
				if s.DRAMSaved != s.BaselineDRAM-s.DRAMTraffic {
					t.Errorf("%s: DRAMSaved %d, baseline %d - traffic %d = %d",
						at, s.DRAMSaved, s.BaselineDRAM, s.DRAMTraffic, s.BaselineDRAM-s.DRAMTraffic)
				}
				for _, gp := range s.Groups {
					if gp.ActReads+gp.WeightReads != gp.DRAMReads || gp.ActWrites != gp.DRAMWrites {
						t.Errorf("%s: group [%d,%d] reads %d+%d of %d, writes %d of %d", at, gp.Lo, gp.Hi,
							gp.ActReads, gp.WeightReads, gp.DRAMReads, gp.ActWrites, gp.DRAMWrites)
					}
				}
			}
			for i, gp := range run.Groups {
				name := m.Layers[i].Layer.Name
				if gp.InputResident && len(g.Ins[i]) == 0 {
					t.Errorf("%s/%d: %s reads the model input, yet is input-resident", m.Name, l2, name)
				}
				for _, p := range g.Ins[i] {
					if gp.InputResident && !run.Groups[p].OutputResident {
						t.Errorf("%s/%d: %s is input-resident, but its producer %s kept no output",
							m.Name, l2, name, m.Layers[p].Layer.Name)
					}
				}
				if gp.OutputResident && len(g.Outs[i]) == 0 {
					t.Errorf("%s/%d: %s kept its output resident, but nothing later reads it", m.Name, l2, name)
				}
			}
		}
	}
}

// TestResidualRefetch: a residual source that is not resident when its
// reader runs is read from DRAM again. Nothing stays resident at L2 0 or
// at 4 KiB, so declaring the skip edge adds exactly the source's output
// elements to the reader's activation reads, and to the baseline, so
// nothing counts as saved.
func TestResidualRefetch(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	src := scaledElems(m.Layers[0].Layer, tensor.Output)
	for _, l2 := range []int64{0, 4 << 10} {
		free, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: l2})
		if err != nil {
			t.Fatal(err)
		}
		skip, err := Run(m, cfg, Options{Dataflow: fixedKCP, L2Bytes: l2, Residuals: []Edge{{From: 0, To: 3}}})
		if err != nil {
			t.Fatal(err)
		}
		if d := skip.DRAMTraffic - free.DRAMTraffic; d != src {
			t.Errorf("L2 %d: the skip edge added %d DRAM elements, want the source's %d", l2, d, src)
		}
		if d := skip.Groups[3].ActReads - free.Groups[3].ActReads; d != src {
			t.Errorf("L2 %d: the reader's activation reads rose by %d, want %d", l2, d, src)
		}
		if skip.DRAMSaved != 0 {
			t.Errorf("L2 %d: %d elements saved with nothing resident", l2, skip.DRAMSaved)
		}
	}
}
