package fleet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/serve"
)

// serviceTime models a remote node's per-shard service time via the
// chaos latency injector. The in-process compute for the benchmark
// space is microseconds, so without this the benchmark would measure
// loopback HTTP overhead, not coordination; with it, the sweep's wall
// clock is dominated by per-node service time exactly as a real fleet's
// is, and the nodes=N ratio reports how well the coordinator overlaps
// nodes. (The container this repo benches on is single-CPU, so genuine
// compute-bound scaling cannot be demonstrated in-process.)
const serviceTime = 10 * time.Millisecond

// benchReq widens fleetReq's PE axis to 32 (pe, p1) cells so the
// partition is fine-grained enough for the ring to balance: with only
// a handful of shards, one node's extra shard dominates the critical
// path and understates the coordinator.
func benchReq() serve.DSERequest {
	req := fleetReq()
	req.PEs = nil
	for pe := 32; pe <= 512; pe += 32 {
		req.PEs = append(req.PEs, pe)
	}
	return req
}

// computeReq has the shape of the end-to-end fleet workload's DSE
// sweeps: default PE and knob axes (12 (pe, p1) cells), four
// bandwidths, and L1/L2 grids of 10 and 10 capacities.
func computeReq() serve.DSERequest {
	return serve.DSERequest{
		Layer:    serve.LayerSpec{Model: "VGG16", Name: "CONV11"},
		Template: "KC-P",
		BWs:      []float64{8, 16, 32, 64},
		L1Grid:   dse.DefaultGrid(64, 1<<15, 2),
		L2Grid:   dse.DefaultGrid(1<<12, 1<<21, 2),
	}
}

// BenchmarkFleetSweep sweeps the same space through 1, 2, and 4
// in-process nodes with a fixed 32-shard partition and reports merged
// designs per wall-clock second. Its latency=0 case injects nothing: two
// nodes, one request in flight per node and the default shard count run
// the end-to-end fleet workload's sweep shape, so ns/op is coordinator
// dispatch plus node compute (profiles warm, result cache bypassed).
func BenchmarkFleetSweep(b *testing.B) {
	b.Run("latency=0,nodes=2", func(b *testing.B) {
		hosts, _, hc := newNodes(b, 2)
		opts := fastFleet(hosts, hc)
		opts.ShardsPerNode = 0 // the default
		f, err := New(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		req := computeReq()
		req.NoCache = true
		if _, err := f.Sweep(context.Background(), req); err != nil {
			b.Fatal(err) // warm the profile cache
		}
		b.ResetTimer()
		var shards int
		for i := 0; i < b.N; i++ {
			res, err := f.Sweep(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			shards += res.Shards
		}
		b.ReportMetric(float64(shards)/float64(b.N), "shards/op")
	})
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			hosts, servers, hc := newNodes(b, n)
			for _, s := range servers {
				s.SetChaos(serve.Chaos{Latency: serviceTime})
			}
			opts := fastFleet(hosts, hc)
			opts.ShardsPerNode = 32 / n // constant 32 shards at every width
			f, err := New(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			req := benchReq()
			req.NoCache = true // measure dispatch, not the nodes' result caches

			b.ResetTimer()
			var explored int64
			var elapsed time.Duration
			for i := 0; i < b.N; i++ {
				res, err := f.Sweep(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				explored += res.Explored
				elapsed += res.Elapsed
			}
			b.ReportMetric(float64(explored)/elapsed.Seconds(), "designs/s")
		})
	}
}
