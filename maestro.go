// Package maestro is a Go implementation of MAESTRO — the data-centric
// DNN dataflow cost model of Kwon et al., "Understanding Reuse,
// Performance, and Hardware Cost of DNN Dataflows: A Data-Centric
// Approach Using MAESTRO" (MICRO-52, 2019).
//
// It provides:
//
//   - the data-centric directive representation (SpatialMap, TemporalMap,
//     Cluster) with a MAESTRO-style DSL and a programmatic builder;
//   - the five analysis engines (tensor, cluster, reuse, performance,
//     cost) that estimate runtime, energy, NoC bandwidth requirements and
//     buffer requirements for a layer + dataflow + hardware configuration;
//   - a step-accurate reference simulator used to validate the analytical
//     model (the paper's Figure 9 methodology);
//   - the Table 3 dataflow library (C-P, X-P, YX-P, YR-P, KC-P) and a
//     model zoo (VGG16, AlexNet, ResNet50, ResNeXt50, MobileNetV2, UNet,
//     DCGAN);
//   - a design-space exploration tool sweeping PEs, buffers and NoC
//     bandwidth under area/power budgets (Figure 13).
//
// Quick start:
//
//	layer := maestro.Conv2D("conv", 64, 64, 56, 3, 1)
//	df := maestro.DataflowByName("KC-P")
//	result, err := maestro.Analyze(df, layer, maestro.Accel256())
//	fmt.Println(result)
package maestro

import (
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/netsched"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// Core tensor/layer types.
type (
	// Dim is one of the seven data dimensions N, K, C, Y, X, R, S.
	Dim = tensor.Dim
	// Layer describes one DNN layer shape.
	Layer = tensor.Layer
	// Sizes holds one extent per dimension.
	Sizes = tensor.Sizes
	// Kind identifies the input, weight, or output tensor.
	Kind = tensor.Kind
	// OpType classifies the operator (Conv2D, DepthwiseConv, ...).
	OpType = tensor.OpType
)

// Dimension constants.
const (
	N = tensor.N
	K = tensor.K
	C = tensor.C
	Y = tensor.Y
	X = tensor.X
	R = tensor.R
	S = tensor.S
)

// Tensor kinds.
const (
	Input  = tensor.Input
	Weight = tensor.Weight
	Output = tensor.Output
)

// Operator types.
const (
	OpConv2D         = tensor.Conv2D
	OpDepthwiseConv  = tensor.DepthwiseConv
	OpPointwiseConv  = tensor.PointwiseConv
	OpFullyConnected = tensor.FullyConnected
	OpTransposedConv = tensor.TransposedConv
	OpPooling        = tensor.Pooling
	OpGEMM           = tensor.GEMM
)

// Dataflow representation.
type (
	// Dataflow is an ordered data-centric directive list.
	Dataflow = dataflow.Dataflow
	// Directive is one SpatialMap/TemporalMap/Cluster entry.
	Directive = dataflow.Directive
	// SizeExpr is a possibly symbolic size (the paper's Sz(d) notation).
	SizeExpr = dataflow.SizeExpr
	// Spec is a dataflow bound to a layer and PE count.
	Spec = dataflow.Spec
	// Network is a parsed DSL file.
	Network = dataflow.Network
)

// Directive builders.
var (
	TMap      = dataflow.TMap
	SMap      = dataflow.SMap
	ClusterOf = dataflow.ClusterOf
	Lit       = dataflow.Lit
	Sz        = dataflow.Sz
)

// DSL entry points.
var (
	ParseNetwork  = dataflow.ParseNetwork
	ParseDataflow = dataflow.ParseDataflow
	Resolve       = dataflow.Resolve
)

// LintWarning is one mapping-inefficiency finding.
type LintWarning = dataflow.Warning

// Lint reports mapping inefficiencies (idle PEs, under-filled spatial
// maps, redundant compute, partial-sum spills) the cost model will
// charge for.
var Lint = dataflow.Lint

// Hardware and cost models.
type (
	// HWConfig is the abstract accelerator of the paper's Figure 2.
	HWConfig = hw.Config
	// NoCModel is the analytical pipe model of one NoC level.
	NoCModel = noc.Model
	// CostModel prices building-block area and power for the DSE.
	CostModel = hw.CostModel
	// EnergyTable holds per-event energies.
	EnergyTable = energy.Table
)

// Hardware presets and helpers.
var (
	Accel256     = hw.Accel256
	MAERI64      = hw.MAERI64
	Eyeriss168   = hw.Eyeriss168
	Default28nm  = hw.Default28nm
	Bus          = noc.Bus
	Crossbar     = noc.Crossbar
	Mesh         = noc.Mesh
	SystolicRow  = noc.SystolicRow
	Tree         = noc.Tree
	GBpsToElems  = noc.GBpsToElems
	DefaultTable = energy.DefaultTable
	// ParseEnergyTable reads a per-event energy table file (the
	// Accelergy-style substitution point of Section 4.3).
	ParseEnergyTable = energy.ParseTable
)

// Analysis results.
type (
	// Result is the performance + cost report for one layer.
	Result = core.Result
	// SimResult is the reference simulator's measurement.
	SimResult = sim.Result
)

// Typed validation errors. Analyze and Resolve wrap every
// validation failure — malformed dataflow, layer, or hardware
// configuration — with one of these sentinels, so callers (notably the
// analysis service) can separate caller mistakes from internal faults
// with errors.Is.
var (
	ErrInvalidDataflow = dataflow.ErrInvalid
	ErrInvalidLayer    = tensor.ErrInvalidLayer
	ErrInvalidConfig   = hw.ErrInvalidConfig
)

// Augment returns the dataflow with every implicit mapping made
// explicit against a layer: unmentioned dimensions become single-chunk
// temporal maps at each cluster level. The result is the canonical form
// the analysis service hashes for its result cache; augmenting an
// already augmented dataflow is the identity.
var Augment = dataflow.Augment

// Analyze runs the analytical cost model on a dataflow, layer and
// hardware configuration.
func Analyze(df Dataflow, layer Layer, cfg HWConfig) (*Result, error) {
	return core.AnalyzeDataflow(df, layer, cfg)
}

// AnalyzeSpec analyzes an already resolved dataflow.
var AnalyzeSpec = core.Analyze

// AnalyzeCached is Analyze through the shared profile cache: the
// hardware-independent cluster walk is fetched (or built once) per
// (dataflow, layer, PE count) and re-priced under cfg, so sweeps that
// vary only hardware knobs skip the walk entirely.
func AnalyzeCached(df Dataflow, layer Layer, cfg HWConfig) (*Result, error) {
	return core.AnalyzeDataflowCached(df, layer, cfg)
}

// Profile/Price split the cost model into its hardware-independent and
// hardware-dependent phases.
type (
	// LayerProfile is the memoized hardware-independent analysis of one
	// (dataflow, layer, PE count) triple; Price it under any hardware
	// configuration with that PE count.
	LayerProfile = core.LayerProfile
	// ProfileCache is a sharded LRU + singleflight cache of LayerProfiles.
	ProfileCache = core.ProfileCache
)

// Profile/Price entry points.
var (
	// Profile runs the recursive cluster walk once on a resolved dataflow
	// and records the hardware-independent case quantities.
	Profile = core.Profile
	// Price prices a profile under a hardware configuration;
	// AnalyzeSpec is Profile followed by this call.
	Price = core.Price
	// PriceBatch prices a profile under many hardware configurations in
	// one DAG walk; results[i] is bit-identical to Price(p, cfgs[i]).
	PriceBatch = core.PriceBatch
	// AnalyzeCachedBatch prices many configurations of one
	// (dataflow, layer) pair with a single profile fetch and batch walk.
	AnalyzeCachedBatch = core.AnalyzeDataflowCachedBatch
	// ProfileDataflow resolves and profiles through the shared cache.
	ProfileDataflow = core.ProfileDataflow
	// NewProfileCache builds a private profile cache.
	NewProfileCache = core.NewProfileCache
	// SharedProfileCache is the package-level cache the tuner, the DSE
	// endpoint, and AnalyzeCached share.
	SharedProfileCache = core.DefaultProfileCache
)

// Simulate runs the step-accurate reference simulator on a resolved
// dataflow (the Figure 9 validation path).
var Simulate = sim.Simulate

// Model zoo.
type (
	// Model is a named DNN layer list.
	Model = models.Model
	// LayerInst is one layer with its repetition count and Table 4 class.
	LayerInst = models.LayerInst
	// OperatorClass is the Table 4 taxonomy.
	OperatorClass = models.Class
)

// Model constructors.
var (
	VGG16            = models.VGG16
	GoogLeNet        = models.GoogLeNet
	AlexNet          = models.AlexNet
	ResNet50         = models.ResNet50
	ResNeXt50        = models.ResNeXt50
	MobileNetV2      = models.MobileNetV2
	UNet             = models.UNet
	DCGAN            = models.DCGAN
	LSTM             = models.LSTM
	EvaluationModels = models.EvaluationModels
	ClassifyLayer    = models.Classify
)

// DataflowByName returns one of the paper's Table 3 dataflows:
// "C-P", "X-P", "YX-P", "YR-P", or "KC-P". The result is the caller's
// own copy, free to change.
func DataflowByName(name string) Dataflow { return dataflows.Get(name).Clone() }

// DataflowNames lists the Table 3 dataflow names in plotting order.
var DataflowNames = dataflows.Names

// AllDataflows returns the five Table 3 dataflows, as copies the caller
// may change.
func AllDataflows() []Dataflow {
	out := dataflows.All()
	for i, df := range out {
		out[i] = df.Clone()
	}
	return out
}

// Parameterized dataflow templates for design-space exploration.
var (
	KCPSized = dataflows.KCPSized
	YRPSized = dataflows.YRPSized
	YXPSized = dataflows.YXPSized
)

// Design-space exploration.
type (
	// DSESpace is the search space of one DSE run.
	DSESpace = dse.Space
	// DSEPoint is one valid design.
	DSEPoint = dse.Point
	// DSEStats summarizes an exploration run.
	DSEStats = dse.Stats
	// DSETemplate parameterizes a dataflow style with tile-size knobs.
	DSETemplate = dse.Template
)

// DSE entry points.
var (
	Explore       = dse.Explore
	ThroughputOpt = dse.ThroughputOpt
	EnergyOpt     = dse.EnergyOpt
	EDPOpt        = dse.EDPOpt
	Pareto        = dse.Pareto
	DefaultGrid   = dse.DefaultGrid
)

// Auto-tuner (the paper's Section 7 future work): searches dataflow
// styles and tile sizes for the best mapping of a layer on a hardware
// configuration.
type (
	// TunerOptions configures the mapping search.
	TunerOptions = tuner.Options
	// TunerChoice is one tuned mapping with its analysis.
	TunerChoice = tuner.Choice
)

// Tuner objectives.
const (
	MinRuntime = tuner.MinRuntime
	MinEnergy  = tuner.MinEnergy
	MinEDP     = tuner.MinEDP
)

// Free-form search strategies (TunerOptions.Strategy), run after the
// template scan when TunerOptions.Budget is positive.
const (
	TunerExhaustive   = tuner.Exhaustive
	TunerRandomSample = tuner.RandomSample
	TunerHillClimb    = tuner.HillClimb
)

// TuneLayer returns the best mapping of the tuner's candidate space for
// one layer.
var TuneLayer = tuner.TuneLayer

// Whole-network scheduling with inter-layer L2 residency and residual
// pinning (the Table 4 inter-layer effects).
type (
	// NetOptions configures network scheduling.
	NetOptions = netsched.Options
	// ResidualEdge is a skip connection between layer indices.
	ResidualEdge = netsched.Edge
)

// ScheduleNetwork plans a model's layers on one accelerator, one
// singleton FusionGroup per layer with its residency flags.
var ScheduleNetwork = netsched.Run

// Graph-level fusion scheduling: the network DAG partitioned into
// fusion subgraphs that stream tile bands through L2, validated
// step-accurately by the simulator's band-by-band replay (see
// docs/NETSCHED.md).
type (
	// FusedNetSchedule is a network plan: ScheduleNetworkFused's fusion
	// subgraphs, or ScheduleNetwork's one group per layer.
	FusedNetSchedule = netsched.FusedSchedule
	// FuseNetOptions configures graph-level fusion scheduling.
	FuseNetOptions = netsched.FuseOptions
	// FusionGroup is one group of a network plan: a fusion subgraph, or
	// a single layer with its residency flags.
	FusionGroup = netsched.GroupPlan
	// FusedNetReplay is the simulator's replay of a fused plan.
	FusedNetReplay = sim.FusedReplay
	// FusionSweepSpace is a DSE sweep over fused schedules.
	FusionSweepSpace = dse.FusionSpace
	// FusionSweepPoint is one priced partitioning of such a sweep.
	FusionSweepPoint = dse.FusionPoint
)

// Fused-scheduling entry points: schedule a model's activation DAG,
// replay the schedule in the simulator, and sweep the (L2 budget x
// fusion granularity) plane.
var (
	ScheduleNetworkFused = netsched.RunFused
	ReplayFusedSchedule  = sim.ReplayFused
	ExploreFusion        = dse.ExploreFusion
	BestFusion           = dse.BestFusion
)

// Machine-readable exports and roofline analysis.
type (
	// ReportRow is the flat per-layer export record.
	ReportRow = report.Row
	// Roofline places a mapping against the compute and bandwidth roofs.
	Roofline = report.Roofline
)

// Export and roofline helpers.
var (
	ReportRowOf         = report.RowOf
	WriteCSV            = report.WriteCSV
	WriteJSON           = report.WriteJSON
	WriteDSECSV         = report.WriteDSECSV
	RooflineOf          = report.RooflineOf
	ArithmeticIntensity = report.ArithmeticIntensity
)

// ParseHWConfig reads a line-oriented accelerator description file.
var ParseHWConfig = hw.ParseConfig

// Transformer models the GEMM workload of one encoder block; BERTBase is
// the d=768/12-head/ff=3072 instantiation.
var (
	Transformer = models.Transformer
	BERTBase    = models.BERTBase
)

// Analysis service (cmd/maestro-serve): the HTTP JSON API over the
// cost model, with a canonical-request result cache, a bounded worker
// pool with backpressure, and Prometheus-format metrics.
type (
	// ServeOptions configures the analysis service.
	ServeOptions = serve.Options
	// ServeRequest is the body of POST /v1/analyze.
	ServeRequest = serve.AnalyzeRequest
	// ServeResponse is the body of a successful analysis call.
	ServeResponse = serve.AnalyzeResponse
	// ServeLayerSpec selects a zoo layer or describes a shape inline.
	ServeLayerSpec = serve.LayerSpec
	// ServeDataflowSpec selects a Table 3 dataflow or carries DSL.
	ServeDataflowSpec = serve.DataflowSpec
	// ServeHWSpec selects a hardware preset and/or overrides fields.
	ServeHWSpec = serve.HWSpec
)

// NewAnalysisServer builds the analysis service; mount its Handler()
// and Close() it on shutdown to drain in-flight work.
var NewAnalysisServer = serve.New

// ServeChaos configures the service's fault-injection middleware
// (seeded error-rate and latency distributions on the /v1/* endpoints)
// for resilience testing and manual soak runs.
type ServeChaos = serve.Chaos

// Resilient client for the analysis service: stdlib-only, with
// jittered exponential retry honoring Retry-After, a per-host circuit
// breaker, optional hedging for idempotent analyze calls, and context
// deadline propagation into the service's timeout_ms.
type (
	// Client calls a maestro-serve instance with retries, backoff, and
	// a circuit breaker; build with NewClient.
	Client = client.Client
	// ClientOptions configures a Client.
	ClientOptions = client.Options
	// ClientStats snapshots a Client's resilience counters.
	ClientStats = client.Stats
	// ClientBreakerOptions configures the per-host circuit breaker.
	ClientBreakerOptions = client.BreakerOptions
	// ClientBreakerState is a circuit breaker position
	// (closed/open/half-open).
	ClientBreakerState = client.BreakerState
	// ClientAPIError is a terminal, non-retryable service answer.
	ClientAPIError = client.APIError
)

// NewClient builds a resilient client for the analysis service at
// opts.BaseURL.
var NewClient = client.New

// Client sentinel errors.
var (
	// ErrClientCircuitOpen reports a call refused locally by an open
	// circuit breaker.
	ErrClientCircuitOpen = client.ErrCircuitOpen
	// ErrClientExhausted reports that every retry attempt failed.
	ErrClientExhausted = client.ErrExhausted
)

// Distributed DSE: a Fleet shards one design-space sweep across
// several maestro-serve nodes, routes shards with a consistent hash
// over the canonical (layer, template, PE subset) key so repeat sweeps
// hit warm profile caches, and merges the partial Pareto fronts as
// shards complete. Node loss re-dispatches stranded shards along the
// ring; a straggler watchdog steals the slowest shard onto an idle
// node with at-most-once result accounting.
type (
	// Fleet coordinates sharded sweeps over a pool of serve nodes;
	// build with NewFleet.
	Fleet = fleet.Fleet
	// FleetOptions configures a Fleet.
	FleetOptions = fleet.Options
	// FleetResult is a completed distributed sweep: merged front,
	// optima, and aggregated counters.
	FleetResult = fleet.Result
	// FleetStats snapshots fleet dispatch counters and per-node
	// breaker positions.
	FleetStats = fleet.Stats
	// FleetNodeStats is one node's share of fleet traffic.
	FleetNodeStats = fleet.NodeStats
	// FleetShardResult is one settled shard of either sweep kind,
	// streamed via FleetOptions.OnShard.
	FleetShardResult = fleet.ShardResult
	// FleetProbeOptions configures the active health prober
	// (FleetOptions.Probe); a zero Interval disables probing.
	FleetProbeOptions = fleet.ProbeOptions
	// FleetHealth is a probed node state: unknown, up, draining, dead.
	FleetHealth = fleet.Health
	// DSEShardSpec is one shard of a partitioned (PE, tile-knob) grid.
	DSEShardSpec = dse.Shard
	// ServeDSEShard is the /v1/dse shard descriptor scoping a sweep to
	// one shard of a distributed run.
	ServeDSEShard = serve.DSEShard
)

// NewFleet builds a fleet coordinator over FleetOptions.Hosts.
var NewFleet = fleet.New

// Sharding and ordering primitives behind the fleet, exported
// for custom coordinators.
var (
	// PartitionDSE splits the (PE, P1) axes into contiguous shards.
	PartitionDSE = dse.Partition
	// SortDSEPoints orders points canonically so merged fronts compare
	// bit-identical regardless of arrival order.
	SortDSEPoints = dse.SortPoints
	// DSERouteKey is the canonical routing key the fleet hashes shards
	// by — the same (dataflow, layer, PE) family the servers' profile
	// caches are keyed on.
	DSERouteKey = serve.DSERouteKey
)

// Conv2D builds a dense convolution with k output channels, c input
// channels, out x out output positions, an r x r filter and the given
// stride (input extent derives as (out-1)*stride + r).
func Conv2D(name string, k, c, out, r, stride int) Layer {
	in := (out-1)*stride + r
	return Layer{
		Name: name, Op: OpConv2D,
		Sizes:   Sizes{N: 1, K: k, C: c, Y: in, X: in, R: r, S: r},
		StrideY: stride, StrideX: stride,
	}.Normalize()
}
