package netsched

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// FuzzPartitionDAG throws arbitrary byte-encoded "models" — cycles,
// dangling edges, zero-size tensors, absurd budgets — at the graph
// scheduler. The invariants: never panic; a returned schedule never
// claims more retained bytes than the budget; every fused group passes
// the legality check (no fusing across an invalid edge); one shared
// RunFusedCaps over caps {1, 2, 3, 8} equals a separate RunFused per cap.
func FuzzPartitionDAG(f *testing.F) {
	f.Add([]byte{3, 0, 16, 8, 1, 16, 8, 2, 16, 8, 0, 1, 1, 2}, int64(64<<10))
	f.Add([]byte{4, 1, 8, 4, 1, 8, 4, 1, 8, 4, 1, 8, 4, 0, 1, 0, 2, 1, 3, 2, 3}, int64(256<<10))
	f.Add([]byte{2, 0, 0, 0, 0, 12, 8, 1, 0}, int64(1<<20))                   // zero-size tensor
	f.Add([]byte{3, 0, 16, 8, 1, 16, 8, 2, 16, 8, 2, 0, 1, 1}, int64(32<<10)) // backward edge = cycle
	f.Add([]byte{1, 3, 16, 8, 0, 9}, int64(-5))

	f.Fuzz(func(t *testing.T, data []byte, l2 int64) {
		if len(data) == 0 {
			return
		}
		next := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		n := int(data[0]%6) + 1
		m := models.Model{Name: "fuzz"}
		pos := 1
		for i := 0; i < n; i++ {
			op := []tensor.OpType{tensor.Conv2D, tensor.PointwiseConv, tensor.DepthwiseConv, tensor.Pooling}[next(pos)%4]
			spatial := int(next(pos+1) % 40) // zero allowed
			ch := int(next(pos+2) % 33)      // zero allowed
			pos += 3
			rs, stride := 3, 1
			if op == tensor.PointwiseConv {
				rs = 1
			}
			if op == tensor.Pooling {
				stride = 2
			}
			in := 0
			if spatial > 0 {
				in = (spatial-1)*stride + rs
			}
			l := tensor.Layer{
				Name: "f", Op: op,
				Sizes: tensor.Sizes{tensor.N: 1, tensor.K: ch, tensor.C: ch,
					tensor.Y: in, tensor.X: in, tensor.R: rs, tensor.S: rs},
				StrideY: stride, StrideX: stride,
			}.Normalize()
			m.Layers = append(m.Layers, models.LayerInst{Layer: l, Count: 1 + int(next(pos)%3), Class: models.Classify(l)})
			pos++
		}
		// Edges straight from the bytes: backward edges (cycles), self
		// loops, and out-of-range endpoints all reach BuildGraph.
		for pos+1 < len(data) && len(m.Edges) < 12 {
			m.Edges = append(m.Edges, models.ActEdge{
				From: int(data[pos]%8) - 1,
				To:   int(data[pos+1] % 8),
			})
			pos += 2
		}

		opt := Options{Dataflow: fixedKCP, L2Bytes: l2}
		s, err := RunFused(m, hw.Accel256(), FuseOptions{Options: opt})
		// One shared run over several caps answers exactly what a
		// separate RunFused answers at each cap, rejections included.
		caps := []int{1, 2, 3, 8}
		shared, sharedErr := RunFusedCaps(m, hw.Accel256(), opt, caps)
		if (err == nil) != (sharedErr == nil) {
			t.Fatalf("RunFused error %v, shared run error %v", err, sharedErr)
		}
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		for k, c := range caps {
			one, err := RunFused(m, hw.Accel256(), FuseOptions{Options: opt, MaxGroupLayers: c})
			if err != nil {
				t.Fatalf("cap %d: %v", c, err)
			}
			if !reflect.DeepEqual(shared[k], one) {
				t.Fatalf("cap %d: shared run differs from a separate RunFused\nshared   %+v\nseparate %+v", c, shared[k], one)
			}
		}
		g, err := BuildGraph(m)
		if err != nil {
			t.Fatalf("schedule produced for unbuildable graph: %v", err)
		}
		for _, gp := range s.Groups {
			if gp.RetainedBytes > l2 || (gp.Fused && gp.L2PeakBytes > l2) {
				t.Errorf("group [%d,%d] retained %d peak %d beyond budget %d",
					gp.Lo, gp.Hi, gp.RetainedBytes, gp.L2PeakBytes, l2)
			}
			if gp.Fused && !checkFusible(g, gp.Lo, gp.Hi) {
				t.Errorf("group [%d,%d] fused across an invalid edge", gp.Lo, gp.Hi)
			}
		}
	})
}
