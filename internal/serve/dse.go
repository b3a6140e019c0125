package serve

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/hw"
)

// Template builders adapt the dataflows package's parameterized styles
// to the DSE's two-knob shape (YX-P has a single knob).
func dseBuildKCP(p1, p2 int) dataflow.Dataflow { return dataflows.KCPSized(p1, p2) }
func dseBuildYRP(p1, p2 int) dataflow.Dataflow { return dataflows.YRPSized(p1, p2) }
func dseBuildYXP(p1, _ int) dataflow.Dataflow  { return dataflows.YXPSized(p1) }

// DSERequest is the body of POST /v1/dse: a bounded design-space sweep
// for one layer under area/power budgets (the paper's Section 5.2
// workflow as a service call).
type DSERequest struct {
	Layer LayerSpec `json:"layer"`
	// Template is the dataflow style to sweep: KC-P, YR-P, or YX-P.
	Template string `json:"template"`
	// P1/P2 are the template's tile-size knobs (P2 ignored by YX-P).
	P1 []int `json:"p1,omitempty"`
	P2 []int `json:"p2,omitempty"`

	PEs    []int     `json:"pes,omitempty"`
	BWs    []float64 `json:"bws,omitempty"` // elements/cycle
	L1Grid []int64   `json:"l1_grid,omitempty"`
	L2Grid []int64   `json:"l2_grid,omitempty"`

	AreaBudgetMM2 float64 `json:"area_budget_mm2,omitempty"`
	PowerBudgetMW float64 `json:"power_budget_mw,omitempty"`

	// Shard, when set, scopes the sweep to one shard of a larger
	// distributed run; the descriptor participates in the result-cache
	// key, so shard responses never collide with the full sweep's.
	Shard *DSEShard `json:"shard,omitempty"`

	// TopK caps the Pareto points returned (default 32).
	TopK      int  `json:"top_k,omitempty"`
	TimeoutMs int  `json:"timeout_ms,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
}

// DSEShard scopes a /v1/dse sweep to one shard of a distributed run:
// the fleet coordinator partitions the design space and sends the same
// base request with a per-shard descriptor. Restrictions compose with
// the request's own axes — the PE range filters the request's (or
// default) PE list, and Mappings must name the sweep's template.
type DSEShard struct {
	// Index/Of label the shard within its partition (for logs, spans,
	// and the cache key); they do not affect the swept space.
	Index int `json:"index,omitempty"`
	Of    int `json:"of,omitempty"`
	// PEMin/PEMax bound the swept PE counts inclusively; zero leaves
	// that end open. An inverted range is a 400.
	PEMin int `json:"pe_min,omitempty"`
	PEMax int `json:"pe_max,omitempty"`
	// Mappings restricts the sweep to these mapping-template names.
	// Every name must be a known template (KC-P, YR-P, YX-P) and the
	// subset must include the request's template — a shard that names
	// an unknown mapping or excludes the whole sweep is a 400.
	Mappings []string `json:"mappings,omitempty"`
}

// DSEPointJSON is one design point of the response; dse.Point carries
// the wire names.
type DSEPointJSON = dse.Point

// DSEResponse is the body of a successful sweep.
type DSEResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`

	Raw      int64   `json:"raw_designs"`
	Explored int64   `json:"explored_designs"`
	Invoked  int64   `json:"model_invocations"`
	Pricings int64   `json:"model_pricings"`
	Valid    int64   `json:"valid_designs"`
	Micros   int64   `json:"elapsed_micros"`
	Rate     float64 `json:"designs_per_second"`

	ThroughputOpt *DSEPointJSON  `json:"throughput_opt,omitempty"`
	EnergyOpt     *DSEPointJSON  `json:"energy_opt,omitempty"`
	EDPOpt        *DSEPointJSON  `json:"edp_opt,omitempty"`
	Pareto        []DSEPointJSON `json:"pareto"`
}

// MaxDSEGrid bounds the raw sweep size one request may ask for; larger
// sweeps belong in the offline tool or in a sharded fleet run, whose
// coordinator splits the space until every shard fits under this cap.
const MaxDSEGrid = 1 << 20

// WithDefaults returns the request with every unset axis, grid, and
// budget filled with the /v1/dse defaults (the examples/dse workflow).
// buildSpace applies it before validation; the fleet coordinator
// applies it too, because sharding needs the concrete axes.
func (req DSERequest) WithDefaults() DSERequest {
	if len(req.P1) == 0 {
		req.P1 = []int{16, 64, 256}
	}
	if len(req.P2) == 0 {
		if req.Template == "YX-P" { // single-knob style: P2 is unused
			req.P2 = []int{1}
		} else {
			req.P2 = []int{8, 32}
		}
	}
	if len(req.PEs) == 0 {
		req.PEs = []int{64, 128, 256, 512}
	}
	if len(req.BWs) == 0 {
		req.BWs = []float64{8, 16, 32, 64}
	}
	if len(req.L1Grid) == 0 {
		req.L1Grid = dse.DefaultGrid(64, 1<<16, 2)
	}
	if len(req.L2Grid) == 0 {
		req.L2Grid = dse.DefaultGrid(1<<12, 1<<22, 2)
	}
	if req.AreaBudgetMM2 == 0 {
		req.AreaBudgetMM2 = 16
	}
	if req.PowerBudgetMW == 0 {
		req.PowerBudgetMW = 450
	}
	return req
}

// applyShard restricts the request's PE axis to the shard descriptor,
// validating the descriptor first: inverted PE ranges, unknown mapping
// names, and shards that select nothing are all the caller's fault.
func applyShard(req DSERequest) (DSERequest, error) {
	sh := req.Shard
	if sh.PEMin < 0 || sh.PEMax < 0 {
		return req, badRequestf("shard pe range [%d, %d] is negative", sh.PEMin, sh.PEMax)
	}
	if sh.PEMin > 0 && sh.PEMax > 0 && sh.PEMin > sh.PEMax {
		return req, badRequestf("shard pe range [%d, %d] is inverted", sh.PEMin, sh.PEMax)
	}
	if len(sh.Mappings) > 0 {
		found := false
		for _, m := range sh.Mappings {
			if _, err := dseTemplate(m); err != nil {
				return req, badRequestf("shard names unknown mapping %q (have KC-P, YR-P, YX-P)", m)
			}
			if m == req.Template {
				found = true
			}
		}
		if !found {
			return req, badRequestf("shard mappings %v exclude the sweep's template %q",
				sh.Mappings, req.Template)
		}
	}
	var pes []int
	for _, pe := range req.PEs {
		if sh.PEMin > 0 && pe < sh.PEMin {
			continue
		}
		if sh.PEMax > 0 && pe > sh.PEMax {
			continue
		}
		pes = append(pes, pe)
	}
	if len(pes) == 0 {
		return req, badRequestf("shard pe range [%d, %d] selects none of the swept PE counts %v",
			sh.PEMin, sh.PEMax, req.PEs)
	}
	req.PEs = pes
	return req, nil
}

// buildSpace validates a DSE request and assembles the search space,
// filling the defaults of the examples/dse workflow.
func buildSpace(req DSERequest) (dse.Space, error) {
	layer, err := resolveLayer(req.Layer)
	if err != nil {
		return dse.Space{}, err
	}
	tmpl, err := dseTemplate(req.Template)
	if err != nil {
		return dse.Space{}, err
	}
	req = req.WithDefaults()
	if req.Shard != nil {
		// The shard restriction applies before the raw-size cap: a fleet
		// shard of a huge sweep is admissible as long as the shard itself
		// fits.
		req, err = applyShard(req)
		if err != nil {
			return dse.Space{}, err
		}
	}
	tmpl.P1 = req.P1
	tmpl.P2 = req.P2
	sp := dse.Space{
		Layer:    layer,
		Template: tmpl,
		PEs:      req.PEs,
		BWs:      req.BWs,
		L1Grid:   req.L1Grid,
		L2Grid:   req.L2Grid,

		AreaBudgetMM2: req.AreaBudgetMM2,
		PowerBudgetMW: req.PowerBudgetMW,
		Cost:          hw.Default28nm(),
	}
	raw := int64(len(sp.PEs)) * int64(len(sp.BWs)) *
		int64(len(tmpl.P1)) * int64(len(tmpl.P2)) *
		int64(len(sp.L1Grid)) * int64(len(sp.L2Grid))
	if raw > MaxDSEGrid {
		return dse.Space{}, badRequestf("sweep spans %d raw designs, cap is %d", raw, MaxDSEGrid)
	}
	// The sweep runs as one pool job; its internal fan-out would
	// otherwise contend with the pool's own workers.
	sp.Workers = 2
	// Profiles are keyed by (dataflow, layer, PEs) only, so sweeps (and
	// analyze requests) that differ just in hardware knobs share them.
	sp.Profiles = core.DefaultProfileCache
	return sp, nil
}

// dseTemplate maps a style name to its parameterized builder.
func dseTemplate(name string) (dse.Template, error) {
	switch name {
	case "KC-P":
		return dse.Template{Name: name, Build: dseBuildKCP}, nil
	case "YR-P":
		return dse.Template{Name: name, Build: dseBuildYRP}, nil
	case "YX-P":
		return dse.Template{Name: name, Build: dseBuildYXP}, nil
	}
	return dse.Template{}, badRequestf("unknown dse template %q (have KC-P, YR-P, YX-P)", name)
}

// runDSE executes the sweep, folding its points as they are found, and
// shapes the response.
func runDSE(req DSERequest, sp dse.Space) *DSEResponse {
	s := dse.Summarize(sp)
	resp := &DSEResponse{
		Raw:      s.Stats.Raw,
		Explored: s.Stats.Explored,
		Invoked:  s.Stats.Invoked,
		Pricings: s.Stats.Priced,
		Valid:    s.Stats.Valid,
		Micros:   s.Stats.Elapsed.Microseconds(),
		Rate:     s.Stats.Rate(),
		Pareto:   []DSEPointJSON{},
	}
	if len(s.Front) > 0 {
		resp.ThroughputOpt, resp.EnergyOpt, resp.EDPOpt = &s.ThroughputOpt, &s.EnergyOpt, &s.EDPOpt
		topK := req.TopK
		if topK <= 0 {
			topK = 32
		}
		// The front is in canonical order, so the top-k cut is the same
		// on every run.
		resp.Pareto = s.Front[:min(topK, len(s.Front))]
	}
	return resp
}

// Summary returns the sweep summary the response carries, for merging
// shard answers: the counters, the optima and the (top-k cut) front.
// The front is the response's slice, not a copy.
func (r *DSEResponse) Summary() dse.Summary {
	s := dse.Summary{
		Stats: dse.Stats{Raw: r.Raw, Explored: r.Explored, Invoked: r.Invoked, Priced: r.Pricings, Valid: r.Valid},
		Front: r.Pareto,
	}
	if r.ThroughputOpt != nil && r.EnergyOpt != nil && r.EDPOpt != nil {
		s.ThroughputOpt, s.EnergyOpt, s.EDPOpt = *r.ThroughputOpt, *r.EnergyOpt, *r.EDPOpt
	}
	return s
}
