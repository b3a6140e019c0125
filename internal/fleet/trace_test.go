package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFleetStitchedTrace is the acceptance check for stitched traces,
// for both sweep kinds: a traced 2-node sweep must assemble into a
// single stitched trace in which every serve.compute span on every node
// is reachable from the coordinator's fleet.sweep root by parent links,
// all spans share the sweep's trace ID, and the Chrome export renders
// one process lane per node.
func TestFleetStitchedTrace(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sweep func(context.Context, *Fleet) (Dispatch, error)
	}{
		{"dse", func(ctx context.Context, f *Fleet) (Dispatch, error) {
			res, err := f.Sweep(ctx, fleetReq())
			if err != nil {
				return Dispatch{}, err
			}
			return res.Dispatch, nil
		}},
		{"fusion", func(ctx context.Context, f *Fleet) (Dispatch, error) {
			res, err := f.SweepFusion(ctx, fusionFleetReq())
			if err != nil {
				return Dispatch{}, err
			}
			return res.Dispatch, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkStitchedTrace(t, tc.sweep) })
	}
}

func checkStitchedTrace(t *testing.T, sweep func(context.Context, *Fleet) (Dispatch, error)) {
	hosts, _, hc := newNodes(t, 2)
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	res, err := sweep(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == "" {
		t.Fatal("traced sweep reported no trace ID")
	}

	ft, err := f.AssembleTrace(context.Background(), res.TraceID, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ft.Nodes {
		if n.Err != "" {
			t.Fatalf("node %s contributed no segments: %s", n.Host, n.Err)
		}
		if n.Spans == 0 {
			t.Errorf("node %s contributed zero spans", n.Host)
		}
		if n.Matched == 0 {
			t.Errorf("node %s: no exchanges matched for skew estimation", n.Host)
		}
	}
	if ft.Dropped != 0 {
		t.Errorf("stitched trace reports %d dropped spans", ft.Dropped)
	}

	byID := make(map[uint64]obs.SpanRecord, len(ft.Spans))
	var rootID uint64
	for _, s := range ft.Spans {
		if byID[s.ID].ID != 0 {
			t.Fatalf("span ID %d appears twice after remapping", s.ID)
		}
		byID[s.ID] = s
		if s.Name == "fleet.sweep" {
			if rootID != 0 {
				t.Fatal("more than one fleet.sweep root")
			}
			rootID = s.ID
		}
		if s.TraceID != res.TraceID {
			t.Errorf("span %q trace %q, want %q", s.Name, s.TraceID, res.TraceID)
		}
	}
	if rootID == 0 {
		t.Fatal("no fleet.sweep root in stitched trace")
	}

	reaches := func(s obs.SpanRecord) bool {
		for hops := 0; hops < 64; hops++ {
			if s.ID == rootID {
				return true
			}
			if s.Parent == 0 {
				return false
			}
			var ok bool
			s, ok = byID[s.Parent]
			if !ok {
				return false
			}
		}
		return false
	}
	var computes, reachable int
	wantReqID := "sweep-" + res.TraceID[:16]
	for _, s := range ft.Spans {
		if s.Name != "serve.compute" {
			continue
		}
		computes++
		if reaches(s) {
			reachable++
		}
		if id, _ := s.Attr("request_id"); id != wantReqID {
			t.Errorf("serve.compute request_id = %q, want %q", id, wantReqID)
		}
	}
	if computes < res.Shards {
		t.Errorf("stitched trace has %d serve.compute spans for %d shards", computes, res.Shards)
	}
	if reachable < computes*95/100 || reachable == 0 {
		t.Errorf("only %d/%d serve.compute spans reachable from fleet.sweep, want >=95%%", reachable, computes)
	}

	// The Chrome export is one JSON document with a process lane for
	// the coordinator and each node.
	var buf bytes.Buffer
	if err := ft.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	lanes := map[int]string{}
	var spanEvents int
	for _, ev := range chrome.TraceEvents {
		if ev.Phase == "M" && ev.Name == "process_name" {
			lanes[ev.PID], _ = ev.Args["name"].(string)
		}
		if ev.Phase == "X" {
			spanEvents++
		}
	}
	if len(lanes) != 3 {
		t.Errorf("chrome trace has %d process lanes %v, want 3 (coordinator + 2 nodes)", len(lanes), lanes)
	}
	if lanes[0] != "coordinator" {
		t.Errorf("lane 0 = %q, want coordinator", lanes[0])
	}
	if spanEvents != len(ft.Spans) {
		t.Errorf("chrome trace has %d X events for %d spans", spanEvents, len(ft.Spans))
	}
}

// TestUntracedSweepHasNoTraceOverhead pins the no-op-when-disabled
// contract end to end: without a recorder the sweep reports no trace
// ID and the nodes buffer no segments.
func TestUntracedSweepHasNoTraceOverhead(t *testing.T) {
	hosts, servers, hc := newNodes(t, 2)
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := f.Sweep(context.Background(), fleetReq())
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Errorf("untraced sweep has trace ID %q", res.TraceID)
	}
	for host, s := range servers {
		if st := s.Status(); st.Segments.Traces != 0 || st.Segments.Spans != 0 {
			t.Errorf("node %s buffered segments for an untraced sweep: %+v", host, st.Segments)
		}
	}
}

func TestEstimateSkewAndRemap(t *testing.T) {
	base := time.Unix(100, 0)
	const skew = 5 * time.Second // node clock runs 5s ahead
	attempts := map[uint64]obs.SpanRecord{
		10: {ID: 10, Name: "client.attempt", Start: base, End: base.Add(100 * time.Millisecond)},
	}
	// The node observed the exchange inside the attempt window, but its
	// clock reads 5s later.
	nodeSpans := []obs.SpanRecord{
		{ID: 1, Track: 1, Name: "http.request", RemoteParent: 10,
			Start: base.Add(10 * time.Millisecond).Add(skew),
			End:   base.Add(90 * time.Millisecond).Add(skew)},
		{ID: 2, Parent: 1, Track: 1, Name: "serve.compute",
			Start:  base.Add(20 * time.Millisecond).Add(skew),
			End:    base.Add(80 * time.Millisecond).Add(skew),
			Events: []obs.Event{{Name: "hit", Time: base.Add(30 * time.Millisecond).Add(skew)}},
		},
	}
	off, matched := estimateSkew(nodeSpans, attempts)
	if matched != 1 {
		t.Fatalf("matched = %d, want 1", matched)
	}
	if got := time.Duration(off); got != -skew {
		t.Fatalf("skew estimate = %v, want %v", got, -skew)
	}

	nextID := uint64(10)
	out := remapNode(nodeSpans, attempts, &nextID, off)
	if len(out) != 2 {
		t.Fatalf("remapped %d spans", len(out))
	}
	root, child := out[0], out[1]
	if root.ID <= 10 || child.ID <= 10 {
		t.Errorf("remapped IDs %d, %d not above the coordinator ID space", root.ID, child.ID)
	}
	if root.Parent != 10 {
		t.Errorf("root parent = %d, want coordinator attempt 10", root.Parent)
	}
	if child.Parent != root.ID {
		t.Errorf("child parent = %d, want remapped root %d", child.Parent, root.ID)
	}
	if !root.Start.Equal(base.Add(10 * time.Millisecond)) {
		t.Errorf("root start %v not corrected onto coordinator clock", root.Start)
	}
	if !child.Events[0].Time.Equal(base.Add(30 * time.Millisecond)) {
		t.Errorf("event time %v not corrected", child.Events[0].Time)
	}
	// The input was not mutated (Get hands out shared copies).
	if nodeSpans[0].ID != 1 || !nodeSpans[1].Events[0].Time.Equal(base.Add(30*time.Millisecond).Add(skew)) {
		t.Error("remapNode mutated its input slice")
	}
}
