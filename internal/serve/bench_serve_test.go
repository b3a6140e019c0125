package serve

import (
	"context"
	"fmt"
	"testing"
)

// Benchmarks compare the service's cached and uncached analyze paths.
// Record results in BENCH_serve.json at the repo root:
//
//	go test -run xxx -bench BenchmarkAnalyze ./internal/serve

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
