package fleet

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dse"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// FusionResult is a completed distributed fusion sweep: every priced
// (budget, granularity) point in canonical order plus the least-DRAM
// point, with at-most-once counters aggregated across shards.
type FusionResult struct {
	Model  string
	MACs   int64
	Points []dse.FusionPoint
	Best   *dse.FusionPoint

	Raw   int64
	Valid int64

	Dispatch
}

// SweepFusion partitions req's L2 budget grid, dispatches the chunks
// through the same shard runner as Sweep, and merges the results into
// one sweep over the full (budget x granularity) plane. The granularity
// axis stays whole per chunk: a node prices all caps of a budget in one
// netsched.RunFusedCaps, which builds the budget's mappings and
// interval prices once for every cap, so splitting the budget axis is
// the cheap cut. SweepFusion blocks until every chunk completes, the
// context is cancelled, or a chunk exhausts its failover budget.
func (f *Fleet) SweepFusion(ctx context.Context, req serve.FusionRequest) (*FusionResult, error) {
	req = req.WithDefaults()
	runs, err := f.planFusion(req)
	if err != nil {
		return nil, err
	}
	res := &FusionResult{}
	d, err := f.run(ctx, journalKindFusion, func() (string, error) { return sweepHashFusion(req) }, runs, func(rec *journalRecord) {
		resp := rec.Fusion
		res.Model, res.MACs = resp.Model, resp.MACs
		res.Raw += resp.Raw
		res.Valid += resp.Valid
		for _, pj := range resp.Points {
			res.Points = append(res.Points, fusionPointFrom(pj))
		}
	}, obs.String("model", req.Model), obs.String("dataflow", req.Dataflow))
	if err != nil {
		return nil, err
	}
	res.Dispatch = d
	p := res.Points
	sort.Slice(p, func(a, b int) bool {
		if p[a].L2Bytes != p[b].L2Bytes {
			return p[a].L2Bytes < p[b].L2Bytes
		}
		return p[a].MaxGroupLayers < p[b].MaxGroupLayers
	})
	if best, ok := dse.BestFusion(res.Points); ok {
		res.Best = &best
	}
	return res, nil
}

// planFusion cuts the defaulted request's budget grid into
// ShardsPerNode chunks per host and routes them with ring.placeBounded.
// Every chunk shares one route key: what a node's mappings and profiles
// depend on (model, dataflow, hardware) is the same for every budget,
// so the bound alone spreads a sweep's chunks over the nodes. An unknown
// model or hardware spec is refused here, before anything is counted or
// sent.
func (f *Fleet) planFusion(req serve.FusionRequest) ([]*shardRun, error) {
	if _, ok := models.ByName(req.Model); !ok {
		return nil, fmt.Errorf("fleet: unknown model %q", req.Model)
	}
	key, err := serve.FusionRouteKey(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	chunks := dse.PartitionFusionGrid(req.L2Grid, len(f.opts.Hosts)*f.opts.ShardsPerNode)
	keys := make([]serve.Key, len(chunks))
	for i := range keys {
		keys[i] = key
	}
	routes := f.ring.placeBounded(keys)
	runs := make([]*shardRun, len(chunks))
	for i, chunk := range chunks {
		sreq := req
		sreq.L2Grid = chunk
		sreq.Shard = &serve.FusionShard{Index: i, Of: len(chunks)}
		// The chunk's journal key, when journaling: its scoped request
		// with the delivery-only knobs zeroed, as for a DSE shard.
		var hash string
		if f.opts.CheckpointDir != "" {
			hreq := sreq
			hreq.TimeoutMs = 0
			hreq.NoCache = false
			if hash, err = canonicalHash(journalKindFusion, hreq); err != nil {
				return nil, fmt.Errorf("fleet: hashing fusion shard request: %w", err)
			}
		}
		runs[i] = &shardRun{
			shard: dse.Shard{Index: i, Of: len(chunks)},
			call: func(ctx context.Context, c *client.Client) (journalRecord, error) {
				resp, err := c.Fusion(ctx, sreq)
				return journalRecord{Fusion: resp}, err
			},
			route: routes[i],
			hash:  hash,
		}
	}
	return runs, nil
}

// fusionPointFrom converts the wire point back to the dse type.
func fusionPointFrom(j serve.FusionPointJSON) dse.FusionPoint {
	return dse.FusionPoint{
		L2Bytes:        j.L2Bytes,
		MaxGroupLayers: j.MaxGroupLayers,
		FusedGroups:    j.FusedGroups,
		DRAMTraffic:    j.DRAMTraffic,
		BaselineDRAM:   j.BaselineDRAM,
		DRAMSaved:      j.DRAMSaved,
		ActTraffic:     j.ActTraffic,
		BaselineAct:    j.BaselineAct,
		TotalCycles:    j.TotalCycles,
		EnergyPJ:       j.EnergyPJ,
	}
}
