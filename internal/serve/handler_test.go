package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/netsched"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// serveBody POSTs body to path through h and returns the recorder.
func serveBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzHandler posts arbitrary bodies to the analyze endpoints through
// Handler(). Every answer is a 200, a 4xx, a load answer (429, 503) or
// the deadline a body's timeout_ms set (504), never a 500 or a panic,
// and every analysis served with a 200 has positive runtime and MACs
// and non-negative utilization.
func FuzzHandler(f *testing.F) {
	hit := AnalyzeRequest{
		Layer:    LayerSpec{Model: "VGG16", Name: "CONV3"},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
	}
	miss := hit
	miss.Layer = LayerSpec{Model: "GoogLeNet", Name: "CONV2"}
	miss.HW.L2Bytes, miss.HW.OffchipBandwidth = 256<<10+1, 16
	inline := AnalyzeRequest{
		Layer:    LayerSpec{Name: "inline", Op: "DWCONV", C: 32, Y: 30, X: 30, R: 3, S: 3, StrideY: 2, InputDensity: 0.5},
		Dataflow: DataflowSpec{DSL: "SpatialMap(1,1) C; TemporalMap(3,1) Y; TemporalMap(3,1) X;"},
		HW:       HWSpec{NumPEs: 64, NoCs: []NoCSpec{{Kind: "mesh", Bandwidth: 8}}},
	}
	overflow := hit
	overflow.Layer = LayerSpec{Name: "huge", K: 4_000_000, C: 4_000_000, Y: 40_000, X: 40_000, R: 1, S: 1}
	// Densities outside [0, 1] are a 400; one got a 200 with negative
	// utilization.
	negDensity, overDensity := inline, inline
	negDensity.Layer.InputDensity = -1
	overDensity.Layer.WeightDensity = 2
	// e2ebench's batch: six misses sharing one profile, two hits.
	var batch BatchRequest
	for i := int64(0); i < 6; i++ {
		r := miss
		r.HW.L2Bytes += i
		batch.Requests = append(batch.Requests, r)
	}
	batch.Requests = append(batch.Requests, hit, hit)
	for _, body := range [][]byte{
		mustJSON(f, hit), mustJSON(f, miss), mustJSON(f, inline), mustJSON(f, overflow),
		mustJSON(f, negDensity), mustJSON(f, overDensity), append(mustJSON(f, hit), "garbage"...),
	} {
		f.Add(false, body)
	}
	f.Add(true, mustJSON(f, batch))
	f.Add(true, append(mustJSON(f, batch), "garbage"...))

	s := New(Options{Workers: 1, MaxBatch: 16})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, isBatch bool, body []byte) {
		path := "/v1/analyze"
		if isBatch {
			path = "/v1/analyze/batch"
		}
		rec := serveBody(h, path, body)
		switch code := rec.Code; {
		case code == http.StatusOK:
		case code >= 400 && code < 500, code == http.StatusServiceUnavailable, code == http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("%s answered %d: %s", path, code, rec.Body)
		}
		var results []*AnalyzeResponse
		if isBatch {
			var br BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
				t.Fatalf("batch 200 does not decode: %v", err)
			}
			for _, it := range br.Results {
				if it.Result != nil {
					results = append(results, it.Result)
				}
			}
		} else {
			var ar AnalyzeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ar); err != nil {
				t.Fatalf("analyze 200 does not decode: %v", err)
			}
			results = append(results, &ar)
		}
		for _, r := range results {
			if r.Runtime <= 0 || r.MACs <= 0 || r.Utilization < 0 {
				t.Fatalf("%s 200 with runtime_cycles %d, macs %d, utilization %g: %s",
					path, r.Runtime, r.MACs, r.Utilization, body)
			}
		}
	})
}

// zooConstructors builds each zoo model afresh, by the names ByName
// knows.
var zooConstructors = map[string]func() models.Model{
	"VGG16":       models.VGG16,
	"AlexNet":     models.AlexNet,
	"GoogLeNet":   models.GoogLeNet,
	"ResNet50":    models.ResNet50,
	"ResNeXt50":   models.ResNeXt50,
	"MobileNetV2": models.MobileNetV2,
	"UNet":        models.UNet,
	"DCGAN":       models.DCGAN,
	"BERT-Base":   func() models.Model { return models.BERTBase(128) },
}

// TestSharedZooUnchanged runs every zoo model through the readers of
// the shared zoo and Table 3 dataflows — the serve endpoints, the fusion
// scheduler and the tuner — from several goroutines at once, then checks
// that the shared values still equal freshly built ones. Under -race a
// reader that writes a shared value is also reported as a data race.
func TestSharedZooUnchanged(t *testing.T) {
	zoo := models.Zoo()
	if len(zoo) != len(zooConstructors) {
		t.Fatalf("zoo lists %d models, the test knows %d", len(zoo), len(zooConstructors))
	}
	s := New(Options{Workers: 2})
	t.Cleanup(s.Close)
	h := s.Handler()
	cfg := hw.Accel256()
	post := func(path string, v any) {
		if rec := serveBody(h, path, mustJSON(t, v)); rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range zoo {
				name := zoo[(i+g*3)%len(zoo)]
				m, _ := models.ByName(name)
				first, last := m.Layers[0].Layer, m.Layers[len(m.Layers)-1].Layer
				for _, df := range dataflows.Names {
					post("/v1/analyze", AnalyzeRequest{
						Layer: LayerSpec{Model: name, Name: first.Name}, Dataflow: DataflowSpec{Name: df},
						HW: HWSpec{Preset: "Accel256", L2Bytes: int64(1<<20 + g)},
					})
				}
				var batch BatchRequest
				for _, li := range m.Layers[:min(len(m.Layers), 8)] {
					batch.Requests = append(batch.Requests, AnalyzeRequest{
						Layer: LayerSpec{Model: name, Name: li.Layer.Name}, Dataflow: DataflowSpec{Name: "YR-P"},
						HW: HWSpec{Preset: "MAERI64"},
					})
				}
				post("/v1/analyze/batch", batch)
				post("/v1/dse", DSERequest{
					Layer: LayerSpec{Model: name, Name: last.Name}, Template: "KC-P",
					P1: []int{16}, P2: []int{8}, PEs: []int{64}, BWs: []float64{16},
					L1Grid: []int64{1 << 10}, L2Grid: []int64{1<<20 + int64(g)},
				})
				post("/v1/fusion", FusionRequest{
					Model: name, HW: HWSpec{Preset: "Accel256"}, Dataflow: "KC-P",
					L2Grid: []int64{256<<10 + int64(g)}, MaxGroupLayers: []int{2},
				})
				list := httptest.NewRecorder()
				h.ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
				if list.Code != http.StatusOK {
					t.Errorf("/v1/models: %d %s", list.Code, list.Body)
				}
				yrp := dataflows.Get("YR-P")
				if _, err := netsched.RunFused(m, cfg, netsched.FuseOptions{
					Options: netsched.Options{
						L2Bytes:  512 << 10,
						Dataflow: func(tensor.Layer) (dataflow.Dataflow, bool) { return yrp, true },
					},
					MaxGroupLayers: 4,
				}); err != nil {
					t.Errorf("RunFused %s: %v", name, err)
				}
				for _, l := range []tensor.Layer{first, last} {
					if _, err := tuner.TuneLayer(l, cfg, tuner.Options{Objective: tuner.MinEDP}); err != nil {
						t.Errorf("TuneLayer %s/%s: %v", name, l.Name, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for _, name := range zoo {
		got, _ := models.ByName(name)
		if want := zooConstructors[name](); !reflect.DeepEqual(got, want) {
			t.Errorf("shared %s differs from a fresh build", name)
		}
	}
	for _, name := range dataflows.Names {
		want, err := dataflow.ParseDataflow(name, dataflows.Sources[name])
		if err != nil {
			t.Fatal(err)
		}
		if got := dataflows.Get(name); !reflect.DeepEqual(got, want) {
			t.Errorf("shared %s differs from a fresh parse:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestHandlerHitAllocs bounds the allocations of a cached /v1/analyze
// served through Handler(), request and recorder included. Resolving a
// named layer and dataflow reads the shared zoo and Table 3 values, and
// the answer is compact JSON; a hit that rebuilds its model and
// re-parses its dataflow takes 97 allocations (VGG16) or 155
// (GoogLeNet), over the bound. The race detector's sync.Pool drops
// objects at random, so the count is only checked without it.
func TestHandlerHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const maxAllocs = 64
	s := New(Options{Workers: 1})
	t.Cleanup(s.Close)
	h := s.Handler()
	for _, l := range []LayerSpec{{Model: "VGG16", Name: "CONV3"}, {Model: "GoogLeNet", Name: "CONV2"}} {
		body := mustJSON(t, AnalyzeRequest{Layer: l, Dataflow: DataflowSpec{Name: "KC-P"}, HW: HWSpec{Preset: "Accel256"}})
		serveBody(h, "/v1/analyze", body)
		rec := serveBody(h, "/v1/analyze", body)
		var resp AnalyzeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Cached {
			t.Fatalf("%s/%s: not a cache hit: %d %s", l.Model, l.Name, rec.Code, rec.Body)
		}
		allocs := testing.AllocsPerRun(200, func() { serveBody(h, "/v1/analyze", body) })
		if allocs > maxAllocs {
			t.Errorf("%s/%s hit: %.0f allocations, want <= %d", l.Model, l.Name, allocs, maxAllocs)
		}
	}
}
