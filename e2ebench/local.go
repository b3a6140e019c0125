package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/netsched"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// The local workload is what the CLI tools do in-process (maestro,
// maestro -fuse, maestro-dse, maestro-tune, the Fig. 9 validation), on
// one goroutine. Only engine layers run, so a service change must read
// "no change" here.

type localRun struct {
	seed   int64
	pools  localPools
	gen    *localGen
	models map[string]models.Model
	dfs    map[string]dataflow.Dataflow
	space  dse.Space // the DSE axes every dse op sweeps

	// Outcome counters over every op of the loop.
	dseOps, fusionOps       int
	explored, valid, groups int64
	// Process-wide profile cache counters when the loop starts.
	hits0, misses0 int64
}

func newLocalRun(_ context.Context, rc runConfig) (workload, error) {
	pools, err := newLocalPools()
	if err != nil {
		return nil, err
	}
	lr := &localRun{
		seed:   rc.seed,
		pools:  pools,
		gen:    newLocalGen(rc.seed, pools),
		models: map[string]models.Model{},
		dfs:    map[string]dataflow.Dataflow{},
		space: dse.Space{
			PEs:    []int{64, 128, 256, 512},
			BWs:    []float64{4, 8, 16, 32, 64, 128},
			L1Grid: dse.DefaultGrid(64, 1<<16, 2),
			L2Grid: dse.DefaultGrid(1<<12, 1<<22, 2),

			AreaBudgetMM2: 16,
			PowerBudgetMW: 450,
			Cost:          hw.Default28nm(),
			Workers:       1,
		},
	}
	for _, name := range models.Zoo() {
		lr.models[name], _ = models.ByName(name)
	}
	for _, name := range dataflows.Names {
		lr.dfs[name] = dataflows.Get(name)
	}
	return lr, nil
}

// do runs the next op of the stream.
func (lr *localRun) do(ctx context.Context) (string, error) {
	op := lr.gen.next()
	ctx, root := obs.Start(ctx, "op."+op.Class)
	defer root.End()
	var err error
	switch op.Class {
	case "analyze":
		_, err = lr.analyze(ctx, op)
	case "dse":
		_, err = lr.explore(ctx, op)
	case "tune":
		_, err = lr.tune(ctx, op)
	case "fusion":
		_, err = lr.fuse(ctx, op)
	default:
		_, err = lr.simulate(ctx, op)
	}
	return op.Class, err
}

// analyze resolves and analyzes every layer of one (model, dataflow,
// preset), as maestro does. core.AnalyzeDataflow is Resolve then
// Analyze; the two calls are made separately so each gets its span.
func (lr *localRun) analyze(ctx context.Context, op localOp) ([]*core.Result, error) {
	df, cfg := lr.dfs[op.Dataflow], presets[op.Preset]()
	var out []*core.Result
	for _, li := range lr.models[op.Model].Layers {
		_, s := obs.Start(ctx, "dataflow.Resolve")
		spec, err := dataflow.Resolve(df, li.Layer, cfg.NumPEs)
		s.End()
		if err != nil {
			return nil, err
		}
		_, s = obs.Start(ctx, "core.Analyze")
		r, err := core.Analyze(spec, cfg)
		s.End()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// explore sweeps one (layer, template) space as maestro-dse does, with
// one worker and no profile cache: every mapping is profiled fresh.
func (lr *localRun) explore(ctx context.Context, op localOp) ([]dse.Point, error) {
	sp := lr.space
	sp.Layer, sp.Template = op.Layer, dseTemplate(op.Template)
	ctx, s := obs.Start(ctx, "dse.Explore")
	sp.Ctx = ctx
	pts, st := dse.Explore(sp)
	s.End()
	lr.dseOps++
	lr.explored += st.Explored
	lr.valid += st.Valid
	if st.Valid == 0 {
		return nil, fmt.Errorf("dse %s/%s found no valid design", op.Layer.Name, op.Template)
	}
	return pts, nil
}

func tuneConfig(pes int) hw.Config {
	cfg := hw.Accel256()
	cfg.NumPEs = pes
	return cfg
}

// tune picks the best mapping of one layer at one PE count through the
// process-wide profile cache, as maestro-tune does.
func (lr *localRun) tune(ctx context.Context, op localOp) (tuner.Choice, error) {
	ctx, s := obs.Start(ctx, "tuner.TuneLayer")
	ch, err := tuner.TuneLayerCtx(ctx, op.Layer, tuneConfig(op.PEs), tuner.Options{})
	s.End()
	return ch, err
}

// fuse schedules one model with a fixed dataflow at one L2 budget, then
// replays and verifies the schedule in the simulator, as maestro -fuse
// does.
func (lr *localRun) fuse(ctx context.Context, op localOp) (*netsched.FusedSchedule, error) {
	df := lr.dfs[op.Dataflow]
	cfg := hw.Accel256()
	cfg.L2Size = op.L2Bytes
	opt := netsched.FuseOptions{Options: netsched.Options{
		L2Bytes:  op.L2Bytes,
		Dataflow: func(tensor.Layer) (dataflow.Dataflow, bool) { return df, true },
	}}
	_, s := obs.Start(ctx, "netsched.RunFused")
	sched, err := netsched.RunFused(lr.models[op.Model], cfg, opt)
	s.End()
	if err != nil {
		return nil, err
	}
	_, s = obs.Start(ctx, "sim.ReplayFused")
	rep, err := sim.ReplayFused(sched)
	if err == nil {
		err = rep.Verify(sched, 0.02)
	}
	s.End()
	lr.fusionOps++
	lr.groups += int64(sched.FusedGroups())
	if err != nil {
		return nil, wrongAnswer{fmt.Errorf("%s/%s at %d B: replay contradicts the schedule: %w", op.Model, op.Dataflow, op.L2Bytes, err)}
	}
	return sched, nil
}

// simulate steps one bounded (layer, dataflow) pair on MAERI-64.
func (lr *localRun) simulate(ctx context.Context, op localOp) (*sim.Result, error) {
	cfg := hw.MAERI64()
	_, s := obs.Start(ctx, "dataflow.Resolve")
	spec, err := dataflow.Resolve(lr.dfs[op.Dataflow], op.Layer, cfg.NumPEs)
	s.End()
	if err != nil {
		return nil, err
	}
	_, s = obs.Start(ctx, "sim.Simulate")
	r, err := sim.Simulate(spec, cfg)
	if err == nil {
		s.SetAttr(obs.Int64("cycles", r.Cycles))
	}
	s.End()
	return r, err
}

// check re-runs the first ops of each class of the seed's stream outside
// the timed loop and checks each against an independent path through
// the library.
func (lr *localRun) check(ctx context.Context, c *checker) {
	g := newLocalGen(lr.seed, lr.pools)
	for i, op := range firstPerClass(localDeck, checkedPerClass, g.next, func(o localOp) string { return o.Class }) {
		c.check(fmt.Sprintf("op %d (%s)", i, op.Class), lr.checkOp(ctx, op, c))
	}
}

// checkedPerClass is how many leading ops of each class are re-checked
// and digested.
const checkedPerClass = 8

func (lr *localRun) checkOp(ctx context.Context, op localOp, c *checker) error {
	switch op.Class {
	case "analyze":
		// Sampled analyses equal Price(Profile(...)) bit for bit.
		rs, err := lr.analyze(ctx, op)
		if err != nil {
			return err
		}
		cfg := presets[op.Preset]()
		for i, li := range lr.models[op.Model].Layers {
			spec, err := dataflow.Resolve(lr.dfs[op.Dataflow], li.Layer, cfg.NumPEs)
			if err != nil {
				return err
			}
			p, err := core.Profile(spec)
			if err != nil {
				return err
			}
			pr, err := core.Price(p, cfg)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(rs[i], pr) {
				return fmt.Errorf("layer %s: Analyze and Price(Profile) differ", li.Layer.Name)
			}
			c.record(li.Layer.Name, rs[i].Runtime, bits(rs[i].EnergyDefault().Total()), rs[i].DRAMReads, rs[i].DRAMWrites)
		}
	case "dse":
		// One worker without a cache and two workers through a cache
		// must find the same front.
		pts, err := lr.explore(ctx, op)
		if err != nil {
			return err
		}
		sp := lr.space
		sp.Layer, sp.Template = op.Layer, dseTemplate(op.Template)
		sp.Workers, sp.Profiles = 2, core.NewProfileCache(64)
		other, _ := dse.Explore(sp)
		a, b := dse.Pareto(pts), dse.Pareto(other)
		dse.SortPoints(a)
		dse.SortPoints(b)
		if !reflect.DeepEqual(a, b) {
			return errors.New("Pareto front depends on workers or profile cache")
		}
		for _, p := range a {
			c.record(p.NumPEs, p.P1, p.P2, p.BW, p.Runtime, bits(p.EnergyPJ))
		}
	case "tune":
		// The tuner's cached Profile+Price result equals a one-shot
		// analysis of the mapping it chose.
		ch, err := lr.tune(ctx, op)
		if err != nil {
			return err
		}
		r, err := core.AnalyzeDataflow(ch.Dataflow, op.Layer, tuneConfig(op.PEs))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(ch.Result, r) {
			return fmt.Errorf("tuned %s differs from a one-shot analysis", ch.Dataflow.Name)
		}
		c.record(ch.Dataflow.Name, r.Runtime, bits(r.EnergyDefault().Total()), r.DRAMReads, r.DRAMWrites)
	case "fusion":
		// fuse verifies the schedule against the simulator's replay.
		s, err := lr.fuse(ctx, op)
		if err != nil {
			return err
		}
		c.record(s.FusedGroups(), s.TotalCycles, s.DRAMTraffic, s.BaselineDRAM, bits(s.EnergyPJ))
	default:
		// Simulated MACs equal analytical MACs.
		r, err := lr.simulate(ctx, op)
		if err != nil {
			return err
		}
		cfg := hw.MAERI64()
		a, err := core.AnalyzeDataflow(lr.dfs[op.Dataflow], op.Layer, cfg)
		if err != nil {
			return err
		}
		if r.MACs != a.MACs {
			return fmt.Errorf("%s/%s: simulated %d MACs, analytical %d", op.Layer.Name, op.Dataflow, r.MACs, a.MACs)
		}
		c.record(r.Cycles, r.MACs, r.L2Reads, r.L2Writes)
	}
	return nil
}

// bits renders a float exactly, for the digest.
func bits(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }

func (lr *localRun) tracer(agg *spanAgg) *tracer {
	var rec *obs.Recorder
	return &tracer{
		begin: func(ctx context.Context) context.Context {
			rec = obs.NewRecorder()
			return obs.WithRecorder(ctx, rec)
		},
		end: func(context.Context) error {
			if n := rec.Dropped(); n > 0 {
				return fmt.Errorf("recorder dropped %d spans", n)
			}
			agg.add(rec.Snapshot())
			return nil
		},
	}
}

func (lr *localRun) mark(context.Context) error {
	pc := core.DefaultProfileCache
	lr.hits0, lr.misses0 = pc.Hits(), pc.Misses()
	return nil
}

func (lr *localRun) rows(_ context.Context, _ *loopResult, m *metricSet) (float64, error) {
	pc := core.DefaultProfileCache
	hits, misses := pc.Hits()-lr.hits0, pc.Misses()-lr.misses0
	m.set("core.profile_cache_hit_ratio", ratio(hits, hits+misses))
	if lr.dseOps > 0 {
		m.set("dse.explored", float64(lr.explored)/float64(lr.dseOps))
		m.set("dse.valid_ratio", ratio(lr.valid, lr.explored))
	}
	if lr.fusionOps > 0 {
		m.set("netsched.fused_groups", float64(lr.groups)/float64(lr.fusionOps))
	}
	return peakRSSMB(strconv.Itoa(os.Getpid()))
}

// stop has nothing to end: the local workload starts no process.
func (lr *localRun) stop() {}
