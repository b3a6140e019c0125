package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// FusionShardResult is one merged fusion chunk, streamed via
// Options.OnFusionShard.
type FusionShardResult struct {
	Shard    int
	Of       int
	Host     string // node that produced the result ("" when unknown)
	Replayed bool   // true when restored from the checkpoint journal
	Resp     *serve.FusionResponse
}

// FusionResult is a completed distributed fusion sweep: every priced
// (budget, granularity) point in canonical order plus the least-DRAM
// point, with at-most-once counters aggregated across shards.
type FusionResult struct {
	Model  string
	MACs   int64
	Points []dse.FusionPoint
	Best   *dse.FusionPoint

	Raw    int64
	Valid  int64
	Shards int
	// Redispatched counts failover attempts after a node refused or
	// failed a shard.
	Redispatched int64
	// Replayed counts shards restored from the checkpoint journal
	// instead of dispatched.
	Replayed int
	// JournalErrors counts shard results that merged but could not be
	// made durable (append or fsync failed).
	JournalErrors int64
	Elapsed       time.Duration
}

// SweepFusion partitions req's L2 budget grid, dispatches the shards
// across the fleet's nodes with ring failover, and merges the results
// into one sweep over the full (budget x granularity) plane. The
// granularity axis stays whole per shard — partitionings at one budget
// share a node's scheduler re-tunes, so splitting the budget axis is
// the cache-friendly cut. SweepFusion blocks until every shard
// completes, the context is cancelled, or a shard exhausts its rounds.
func (f *Fleet) SweepFusion(ctx context.Context, req serve.FusionRequest) (*FusionResult, error) {
	req = req.WithDefaults()
	start := time.Now()
	chunks := dse.PartitionFusionGrid(req.L2Grid, len(f.opts.Hosts)*f.opts.ShardsPerNode)
	if len(chunks) == 0 {
		return nil, fmt.Errorf("fleet: fusion sweep of %q has an empty budget grid", req.Model)
	}

	// Open the write-ahead journal before anything is dispatched; see
	// journal.go for the record format and Sweep for the DSE twin of
	// this logic.
	var jnl *journal
	if f.opts.CheckpointDir != "" {
		hash, err := sweepHashFusion(req)
		if err != nil {
			return nil, fmt.Errorf("fleet: hashing fusion request: %w", err)
		}
		jnl, err = openJournal(f.opts.CheckpointDir, journalKindFusion, hash, f.opts.Resume)
		if err != nil {
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	slots := newHostSlots(f.opts.Hosts, f.opts.InflightPerNode)

	var (
		mu            sync.Mutex
		points        []dse.FusionPoint
		raw, valid    int64
		redispatched  int64
		replayed      int
		journalErrors int64
		model         string
		macs          int64
		firstErr      error
	)
	mergeResp := func(resp *serve.FusionResponse) {
		model, macs = resp.Model, resp.MACs
		raw += resp.Raw
		valid += resp.Valid
		for _, pj := range resp.Points {
			points = append(points, fusionPointFrom(pj))
		}
	}
	var wg sync.WaitGroup
	for i, chunk := range chunks {
		sreq := req
		sreq.L2Grid = chunk
		sreq.Shard = &serve.FusionShard{Index: i, Of: len(chunks)}
		var hash string
		if jnl != nil {
			hreq := sreq
			hreq.TimeoutMs = 0
			hreq.NoCache = false
			var err error
			hash, err = canonicalHash(journalKindFusion, hreq)
			if err != nil {
				jnl.close()
				return nil, fmt.Errorf("fleet: hashing fusion shard request: %w", err)
			}
			// Replay: only a record written for this exact chunk of the
			// budget grid, under this exact partition, restores. Dispatch
			// goroutines for earlier chunks may already be merging, so the
			// replay merge takes the same lock (and keeps the callback
			// under it — OnFusionShard is serialized on both paths).
			if rec, ok := jnl.lookup(hash); ok && rec.Of == len(chunks) && rec.Shard == i {
				mu.Lock()
				mergeResp(rec.Fusion)
				replayed++
				if cb := f.opts.OnFusionShard; cb != nil {
					cb(FusionShardResult{Shard: i, Of: len(chunks), Host: rec.Host, Replayed: true, Resp: rec.Fusion})
				}
				mu.Unlock()
				continue
			}
		}
		wg.Add(1)
		go func(i int, sreq serve.FusionRequest, hash string) {
			defer wg.Done()
			resp, host, retries, err := f.dispatchFusion(ctx, slots, i, sreq)
			mu.Lock()
			defer mu.Unlock()
			redispatched += retries
			if err != nil {
				if firstErr == nil && ctx.Err() == nil {
					firstErr = fmt.Errorf("fleet: fusion shard %d/%d: %w", i, len(chunks), err)
					cancel()
				}
				return
			}
			if jnl != nil {
				// fsync-before-merge: the shard only counts once durable.
				rec := journalRecord{Shard: i, Of: len(chunks), Hash: hash, Host: host, Fusion: resp}
				if err := jnl.append(rec); err != nil {
					journalErrors++
				}
			}
			mergeResp(resp)
			if cb := f.opts.OnFusionShard; cb != nil {
				cb(FusionShardResult{Shard: i, Of: len(chunks), Host: host, Resp: resp})
			}
		}(i, sreq, hash)
	}
	wg.Wait()
	if firstErr != nil {
		if jnl != nil {
			jnl.close() // keep the journal for a later resume
		}
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		if jnl != nil {
			jnl.close()
		}
		return nil, err
	}
	if jnl != nil {
		jnl.finish() // complete: nothing left to resume
	}

	sort.Slice(points, func(a, b int) bool {
		if points[a].L2Bytes != points[b].L2Bytes {
			return points[a].L2Bytes < points[b].L2Bytes
		}
		return points[a].MaxGroupLayers < points[b].MaxGroupLayers
	})
	res := &FusionResult{
		Model: model, MACs: macs,
		Points: points,
		Raw:    raw, Valid: valid,
		Shards:        len(chunks),
		Redispatched:  redispatched,
		Replayed:      replayed,
		JournalErrors: journalErrors,
		Elapsed:       time.Since(start),
	}
	if best, ok := dse.BestFusion(points); ok {
		res.Best = &best
	}
	f.mu.Lock()
	f.sweeps++
	f.shards += int64(len(chunks))
	f.redispatched += redispatched
	f.mu.Unlock()
	return res, nil
}

// dispatchFusion walks the ring from the shard's home node until a
// node accepts, retrying up to Rounds full wraps with a backoff
// between wraps. Each attempt holds one of the sweep's slots on its
// host, so a node serves at most InflightPerNode of the sweep's chunks
// at once. Hosts the health prober marks unroutable fall to the
// back of each wrap's order — still tried as a last resort so a sweep
// survives a universally-unhealthy reading, but never preferred over a
// live node. Returns the accepted response, the host that produced it,
// and the number of failed attempts that preceded it.
func (f *Fleet) dispatchFusion(ctx context.Context, slots hostSlots, shard int, req serve.FusionRequest) (*serve.FusionResponse, string, int64, error) {
	hosts := f.opts.Hosts
	var retries int64
	var lastErr error
	for round := 0; round < f.opts.Rounds; round++ {
		order := make([]string, 0, len(hosts))
		var unhealthy []string
		for k := range hosts {
			h := hosts[(shard+k)%len(hosts)]
			if f.routable(h) {
				order = append(order, h)
			} else {
				unhealthy = append(unhealthy, h)
			}
		}
		order = append(order, unhealthy...)
		for _, host := range order {
			if err := ctx.Err(); err != nil || !slots.acquire(ctx, host) {
				return nil, "", retries, ctx.Err()
			}
			resp, err := f.clients[host].Fusion(ctx, req)
			slots.release(host)
			f.mu.Lock()
			ns := f.perNode[host]
			if err != nil {
				ns.Errors++
			} else {
				ns.Shards++
			}
			f.mu.Unlock()
			if err == nil {
				return resp, host, retries, nil
			}
			if refused(err) {
				return nil, "", retries, err
			}
			lastErr = err
			retries++
		}
		if !sleepCtx(ctx, time.Duration(round+1)*50*time.Millisecond) {
			return nil, "", retries, ctx.Err()
		}
	}
	return nil, "", retries, fmt.Errorf("no node accepted after %d rounds: %w", f.opts.Rounds, lastErr)
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
