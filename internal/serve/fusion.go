package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/obs"
)

// FusionRequest is the body of POST /v1/fusion: sweep graph-level
// schedules of one zoo model over the (L2 budget x fusion granularity)
// plane and report fused vs per-layer off-chip traffic at every point.
type FusionRequest struct {
	// Model names a zoo model (see /v1/models).
	Model string `json:"model"`
	// HW describes the accelerator (preset and/or overrides).
	HW HWSpec `json:"hw"`
	// Dataflow applies one Table 3 template to every layer; empty
	// auto-tunes per layer (slower, mapping-quality upper bound).
	Dataflow string `json:"dataflow,omitempty"`

	// L2Grid lists retention budgets in bytes (0 = the no-fusion
	// sentinel); empty uses the server default ladder.
	L2Grid []int64 `json:"l2_grid,omitempty"`
	// MaxGroupLayers lists fusion-subgraph size caps; empty uses
	// {1, 2, 4, 8}.
	MaxGroupLayers []int `json:"max_group_layers,omitempty"`

	// Shard, when set, scopes the sweep to a slice of the budget grid
	// dispatched by a fleet coordinator; it participates in the cache
	// key so shard responses never collide with the full sweep's.
	Shard *FusionShard `json:"shard,omitempty"`

	TimeoutMs int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
}

// FusionShard labels one slice of a distributed fusion sweep. Unlike
// DSEShard it carries the shard's budget slice directly: the
// coordinator already partitioned the grid, the node just prices it.
type FusionShard struct {
	Index int `json:"index,omitempty"`
	Of    int `json:"of,omitempty"`
}

// WithDefaults fills the unset axes with the /v1/fusion defaults. The
// fleet coordinator applies it too, because sharding needs the
// concrete budget grid.
func (req FusionRequest) WithDefaults() FusionRequest {
	if len(req.L2Grid) == 0 {
		req.L2Grid = dse.DefaultFusionL2Grid()
	}
	if len(req.MaxGroupLayers) == 0 {
		req.MaxGroupLayers = []int{1, 2, 4, 8}
	}
	return req
}

// FusionPointJSON is one priced partitioning of the response.
type FusionPointJSON struct {
	L2Bytes        int64   `json:"l2_bytes"`
	MaxGroupLayers int     `json:"max_group_layers"`
	FusedGroups    int     `json:"fused_groups"`
	DRAMTraffic    int64   `json:"dram_traffic"`
	BaselineDRAM   int64   `json:"baseline_dram"`
	DRAMSaved      int64   `json:"dram_saved"`
	SavedFrac      float64 `json:"saved_frac"`
	ActTraffic     int64   `json:"act_traffic"`
	BaselineAct    int64   `json:"baseline_act"`
	TotalCycles    int64   `json:"total_cycles"`
	EnergyPJ       float64 `json:"energy_pj"`
}

// FusionResponse is the body of a successful fusion sweep.
type FusionResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`

	Model string `json:"model"`
	MACs  int64  `json:"macs"`

	Raw    int64 `json:"raw_points"`
	Valid  int64 `json:"valid_points"`
	Micros int64 `json:"elapsed_micros"`

	// Best is the least-DRAM-traffic point of the sweep.
	Best   *FusionPointJSON  `json:"best,omitempty"`
	Points []FusionPointJSON `json:"points"`
}

// MaxFusionGrid bounds the (budget x granularity) plane one request
// may ask for; a larger sweep belongs in a sharded fleet run.
const MaxFusionGrid = 1 << 10

// buildFusionSpace validates a fusion request and assembles the sweep.
func buildFusionSpace(req FusionRequest) (dse.FusionSpace, error) {
	m, ok := models.ByName(req.Model)
	if !ok {
		return dse.FusionSpace{}, badRequestf("unknown model %q (GET /v1/models lists the zoo)", req.Model)
	}
	cfg, err := resolveHW(req.HW)
	if err != nil {
		return dse.FusionSpace{}, err
	}
	req = req.WithDefaults()
	for _, l2 := range req.L2Grid {
		if l2 < 0 {
			return dse.FusionSpace{}, badRequestf("negative l2 budget %d", l2)
		}
	}
	for _, mgl := range req.MaxGroupLayers {
		if mgl < 1 {
			return dse.FusionSpace{}, badRequestf("max_group_layers entry %d is below 1", mgl)
		}
	}
	if sh := req.Shard; sh != nil && (sh.Index < 0 || sh.Of < 1 || sh.Index >= sh.Of) {
		return dse.FusionSpace{}, badRequestf("fusion shard %d/%d is out of range", sh.Index, sh.Of)
	}
	raw := int64(len(req.L2Grid)) * int64(len(req.MaxGroupLayers))
	if raw > MaxFusionGrid {
		return dse.FusionSpace{}, badRequestf("fusion sweep spans %d points, cap is %d", raw, MaxFusionGrid)
	}
	sp := dse.FusionSpace{
		Model:          m,
		Cfg:            cfg,
		Dataflow:       req.Dataflow,
		L2Grid:         req.L2Grid,
		MaxGroupLayers: req.MaxGroupLayers,
		// The sweep runs as one pool job; keep its internal fan-out from
		// contending with the pool's own workers.
		Workers: 2,
	}
	if req.Dataflow != "" {
		found := false
		for _, n := range dataflowNames() {
			if n == req.Dataflow {
				found = true
			}
		}
		if !found {
			return dse.FusionSpace{}, badRequestf("unknown dataflow %q (have %s)",
				req.Dataflow, strings.Join(dataflowNames(), ", "))
		}
	}
	return sp, nil
}

// canonicalFusionKey hashes a fusion request's canonical encoding.
func canonicalFusionKey(cfg hw.Config, req FusionRequest) Key {
	b := appendHW(nil, cfg)
	b = fmt.Appendf(b, "fusion\nmodel=%s|df=%s|l2=%v|mgl=%v\n",
		req.Model, req.Dataflow, req.L2Grid, req.MaxGroupLayers)
	if sh := req.Shard; sh != nil {
		b = fmt.Appendf(b, "shard|%d/%d\n", sh.Index, sh.Of)
	}
	return sha256.Sum256(b)
}

func fusionPointJSON(p dse.FusionPoint) *FusionPointJSON {
	return &FusionPointJSON{
		L2Bytes:        p.L2Bytes,
		MaxGroupLayers: p.MaxGroupLayers,
		FusedGroups:    p.FusedGroups,
		DRAMTraffic:    p.DRAMTraffic,
		BaselineDRAM:   p.BaselineDRAM,
		DRAMSaved:      p.DRAMSaved,
		SavedFrac:      p.SavedFrac(),
		ActTraffic:     p.ActTraffic,
		BaselineAct:    p.BaselineAct,
		TotalCycles:    p.TotalCycles,
		EnergyPJ:       p.EnergyPJ,
	}
}

// runFusion executes the sweep and shapes the response. The sweep stops
// launching points once sp.Ctx ends and then returns the context's
// error; a truncated plane is reported as that error, so the result
// cache never stores it.
func runFusion(sp dse.FusionSpace) (*FusionResponse, error) {
	points, stats, err := dse.ExploreFusion(sp)
	if err != nil {
		return nil, err
	}
	resp := &FusionResponse{
		Model:  sp.Model.Name,
		MACs:   sp.Model.MACs(),
		Raw:    stats.Raw,
		Valid:  stats.Valid,
		Micros: stats.Elapsed.Microseconds(),
		Points: []FusionPointJSON{},
	}
	for _, p := range points {
		resp.Points = append(resp.Points, *fusionPointJSON(p))
	}
	if best, ok := dse.BestFusion(points); ok {
		resp.Best = fusionPointJSON(best)
	}
	return resp, nil
}

func (s *Server) handleFusion(w http.ResponseWriter, r *http.Request) {
	if !methodPost(w, r) {
		return
	}
	s.requests.With("fusion").Inc()
	start := time.Now()
	defer func() { s.latency.Observe(time.Since(start).Seconds()) }()

	var req FusionRequest
	if err := decodeJSON(w, r, 1<<20, &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	sp, err := buildFusionSpace(req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	key := canonicalFusionKey(sp.Cfg, req.WithDefaults())
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMs))
	defer cancel()
	a := s.run(ctx, task{
		keys:    []Key{key},
		noCache: req.NoCache,
		compute: func(ctx context.Context, _ []int) []answer {
			span := obs.SpanFrom(ctx)
			span.SetAttr(obs.String("model", sp.Model.Name), obs.String("template", sp.Dataflow))
			sp.Ctx = ctx
			resp, err := runFusion(sp)
			if err != nil {
				return []answer{{err: err}}
			}
			resp.Key = key.String()
			span.SetAttr(obs.Int64("valid", resp.Valid))
			return []answer{{val: resp}}
		},
	})[0]
	if a.err != nil {
		s.writeError(w, r, a.err)
		return
	}
	s.writeJSON(w, http.StatusOK, a.val)
}
