package serve

import (
	"reflect"
	"testing"
)

// TestDSEFrontCanonicalOrder checks that a /v1/dse answer does not
// depend on how dse.Explore's workers interleave: repeated two-worker
// sweeps return exactly the one-worker response, front order and top-k
// cut included (timings aside). A first sweep warms the shared profile
// cache, so every compared response counts the same cluster walks.
func TestDSEFrontCanonicalOrder(t *testing.T) {
	for _, req := range []DSERequest{
		{Layer: LayerSpec{Model: "VGG16", Name: "CONV11"}, Template: "KC-P"},
		{Layer: LayerSpec{Model: "VGG16", Name: "CONV2"}, Template: "YR-P", TopK: 4},
	} {
		run := func(workers int) *DSEResponse {
			t.Helper()
			sp, err := buildSpace(req)
			if err != nil {
				t.Fatal(err)
			}
			sp.Workers = workers
			resp := runDSE(req, sp)
			resp.Micros, resp.Rate = 0, 0
			return resp
		}
		run(1)
		want := run(1)
		if len(want.Pareto) < 2 {
			t.Fatalf("%s %s: front of %d points cannot show an order", req.Layer.Name, req.Template, len(want.Pareto))
		}
		for i := 0; i < 10; i++ {
			if got := run(2); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s run %d: two-worker response differs from one-worker\ngot  %+v\nwant %+v",
					req.Layer.Name, req.Template, i, got, want)
			}
		}
	}
}
