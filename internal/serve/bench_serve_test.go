package serve

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/dse"
)

// Benchmarks compare the service's cached and uncached analyze paths,
// in process and through Handler(). Record results in BENCH_serve.json
// at the repo root:
//
//	go test -run xxx -bench BenchmarkAnalyze ./internal/serve
//	make bench-serve

func benchServer(b *testing.B) *Server {
	b.Helper()
	s := New(Options{Workers: 4, QueueDepth: 1024})
	b.Cleanup(s.Close)
	return s
}

func benchReq(noCache bool) AnalyzeRequest {
	return AnalyzeRequest{
		Layer:    LayerSpec{Model: "VGG16", Name: "CONV3"},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
		NoCache:  noCache,
	}
}

// BenchmarkAnalyzeCached measures steady-state throughput when every
// request hits the canonical result cache (resolve + hash + LRU probe).
func BenchmarkAnalyzeCached(b *testing.B) {
	s := benchServer(b)
	ctx := context.Background()
	if _, err := s.analyzeOne(ctx, benchReq(false)); err != nil {
		b.Fatalf("prime: %v", err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := s.analyzeOne(ctx, benchReq(false))
			if err != nil {
				b.Errorf("analyze: %v", err)
				return
			}
			if !resp.Cached {
				b.Errorf("expected cache hit")
				return
			}
		}
	})
}

// BenchmarkAnalyzeUncached forces a full cost-model evaluation per
// request (no_cache), bounding the service's compute-side throughput.
func BenchmarkAnalyzeUncached(b *testing.B) {
	s := benchServer(b)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := s.analyzeOne(ctx, benchReq(true))
			if err != nil {
				b.Errorf("analyze: %v", err)
				return
			}
			if resp.Cached {
				b.Errorf("no_cache request reported cached")
				return
			}
		}
	})
}

// BenchmarkCanonicalKey isolates the canonicalizer (profile identity
// plus hardware fields, hashed with SHA-256), the fixed cost every
// request pays.
func BenchmarkCanonicalKey(b *testing.B) {
	r, err := resolveRequest(benchReq(false))
	if err != nil {
		b.Fatalf("resolve: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = canonicalKey(r)
	}
}

// BenchmarkBatchFanout measures an 8-item batch of distinct uncached
// layers fanned out across the pool.
func BenchmarkBatchFanout(b *testing.B) {
	s := benchServer(b)
	ctx := context.Background()
	reqs := make([]AnalyzeRequest, 8)
	for i := range reqs {
		reqs[i] = AnalyzeRequest{
			Layer:    LayerSpec{Name: fmt.Sprintf("bench-%d", i), K: 16 << (i % 4), C: 32, Y: 28, X: 28, R: 3, S: 3},
			Dataflow: DataflowSpec{Name: "KC-P"},
			HW:       HWSpec{Preset: "Accel256"},
			NoCache:  true,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := make(chan error, len(reqs))
		for _, req := range reqs {
			req := req
			go func() {
				_, err := s.analyzeOne(ctx, req)
				done <- err
			}()
		}
		for range reqs {
			if err := <-done; err != nil {
				b.Fatalf("batch item: %v", err)
			}
		}
	}
}

// BenchmarkHandler serves requests through Handler() into an httptest
// recorder: decode, resolve, key, result cache or pool, encode. A hit
// row repeats one cached /v1/analyze (KC-P on Accel256). A miss row
// gives every request an L2 capacity of its own, so it misses the result
// cache and prices a warm profile, as e2ebench's serve misses do.
// dse/fleet_shard sends the /v1/dse body a two-node fleet sends for the
// first shard of a default-grid sweep, with an L2 grid of its own each
// time, as the fleet's sweeps do.
func BenchmarkHandler(b *testing.B) {
	s := New(Options{Workers: 1})
	b.Cleanup(s.Close)
	h := s.Handler()
	unique := int64(0) // grows across runs, so no miss body repeats
	serveOK := func(b *testing.B, path string, body []byte) {
		if rec := serveBody(h, path, body); rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for _, l := range []LayerSpec{{Model: "VGG16", Name: "CONV3"}, {Model: "GoogLeNet", Name: "CONV2"}} {
		req := AnalyzeRequest{Layer: l, Dataflow: DataflowSpec{Name: "KC-P"}, HW: HWSpec{Preset: "Accel256"}}
		hit := mustJSON(b, req)
		serveOK(b, "/v1/analyze", hit)
		b.Run("hit/"+l.Model+"_"+l.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveOK(b, "/v1/analyze", hit)
			}
		})
		b.Run("miss/"+l.Model+"_"+l.Name, func(b *testing.B) {
			bodies := make([][]byte, b.N)
			for i := range bodies {
				unique++
				req.HW.L2Bytes = 256<<10 + unique
				bodies[i] = mustJSON(b, req)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, body := range bodies {
				serveOK(b, "/v1/analyze", body)
			}
		})
	}
	shard := DSERequest{
		Layer: LayerSpec{Model: "VGG16", Name: "CONV3"}, Template: "KC-P",
		BWs: []float64{8, 16, 32, 64}, L1Grid: dse.DefaultGrid(64, 1<<14, 2),
		TopK:  1 << 30,
		Shard: &DSEShard{Index: 0, Of: 2, PEMin: 64, PEMax: 128, Mappings: []string{"KC-P"}},
	}.WithDefaults()
	b.Run("dse/fleet_shard", func(b *testing.B) {
		bodies := make([][]byte, b.N)
		for i := range bodies {
			unique++
			shard.L2Grid = append(dse.DefaultGrid(1<<12, 1<<20, 2), 1<<23+64*unique)
			bodies[i] = mustJSON(b, shard)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, body := range bodies {
			serveOK(b, "/v1/dse", body)
		}
	})
}
