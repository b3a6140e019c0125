package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
)

func fusionReq() FusionRequest {
	return FusionRequest{
		Model:          "GoogLeNet",
		HW:             HWSpec{Preset: "Accel256", L2Bytes: 256 << 10},
		Dataflow:       "KC-P",
		L2Grid:         []int64{0, 256 << 10},
		MaxGroupLayers: []int{8},
	}
}

func postFusion(t *testing.T, url string, req FusionRequest) (int, FusionResponse, []byte) {
	t.Helper()
	code, data := post(t, url+"/v1/fusion", marshal(t, req))
	var out FusionResponse
	if code == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("unmarshal response: %v\n%s", err, data)
		}
	}
	return code, out, data
}

// TestFusionEndpoint drives POST /v1/fusion end to end: the sweep
// prices both corners, the sentinel point matches its baseline, the
// fused point saves traffic, and a repeat call hits the result cache.
func TestFusionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	code, resp, data := postFusion(t, ts.URL, fusionReq())
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, data)
	}
	if resp.Model != "GoogLeNet" || resp.MACs <= 0 {
		t.Fatalf("model echo wrong: %+v", resp)
	}
	if resp.Raw != 2 || resp.Valid != 2 || len(resp.Points) != 2 {
		t.Fatalf("point counts wrong: %+v", resp)
	}
	sentinel, fused := resp.Points[0], resp.Points[1]
	if sentinel.L2Bytes != 0 || sentinel.DRAMTraffic != sentinel.BaselineDRAM {
		t.Fatalf("sentinel point: %+v", sentinel)
	}
	if fused.FusedGroups == 0 || fused.DRAMSaved <= 0 || fused.SavedFrac <= 0 {
		t.Fatalf("fused point saved nothing: %+v", fused)
	}
	if resp.Best == nil || resp.Best.DRAMTraffic > fused.DRAMTraffic {
		t.Fatalf("best missing or wrong: %+v", resp.Best)
	}
	if resp.Cached {
		t.Fatal("first call claimed a cache hit")
	}
	code, resp2, data := postFusion(t, ts.URL, fusionReq())
	if code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, data)
	}
	if !resp2.Cached || resp2.Key != resp.Key {
		t.Fatalf("repeat not cached: cached=%t key %s vs %s", resp2.Cached, resp2.Key, resp.Key)
	}
}

// TestFusionEndpointErrors pins the 400 seams.
func TestFusionEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		mut  func(*FusionRequest)
	}{
		{"unknown model", func(r *FusionRequest) { r.Model = "LeNet-9000" }},
		{"unknown dataflow", func(r *FusionRequest) { r.Dataflow = "ZZ-P" }},
		{"negative budget", func(r *FusionRequest) { r.L2Grid = []int64{-5} }},
		{"zero granularity", func(r *FusionRequest) { r.MaxGroupLayers = []int{0} }},
		{"bad shard", func(r *FusionRequest) { r.Shard = &FusionShard{Index: 3, Of: 2} }},
		{"oversize grid", func(r *FusionRequest) {
			r.L2Grid = make([]int64, 0, MaxFusionGrid+1)
			for i := int64(0); i <= MaxFusionGrid; i++ {
				r.L2Grid = append(r.L2Grid, i)
			}
		}},
	}
	for _, tc := range cases {
		req := fusionReq()
		tc.mut(&req)
		if code, _, data := postFusion(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, data)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/fusion")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/fusion = %d, want 405", resp.StatusCode)
	}
}

// TestFusionCancelledSweepReportsError: a sweep stops launching points
// once its context ends, so a request whose caller left mid-sweep may
// hold a truncated plane. runFusion must report the context's error
// instead, or the pipeline would cache the truncated answer for every
// later identical request.
func TestFusionCancelledSweepReportsError(t *testing.T) {
	sp, err := buildFusionSpace(fusionReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp.Ctx = ctx
	if resp, err := runFusion(sp); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep = (%+v, %v), want context.Canceled", resp, err)
	}
}
