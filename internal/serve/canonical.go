package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Key identifies one canonical request: the SHA-256 of its canonical
// encoding. It keys the result cache and the fleet's routing ring.
type Key [32]byte

// String returns the hex form served back to clients.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// The analyze canonicalizer turns a resolved request into a stable
// cache key: core's profile identity (the raw layer fields and the
// dataflow in Augment's canonical form, so any surface spelling of the
// same mapping — builder vs DSL, whitespace, named vs inline — encodes
// identically) followed by the normalized hardware configuration, field
// by field in a fixed order, hashed with SHA-256. The DSE and routing
// keys below render the layer as text instead.

func canonicalLayer(b *strings.Builder, l tensor.Layer) {
	fmt.Fprintf(b, "layer|%s|op=%s|", l.Name, l.Op)
	for _, d := range tensor.AllDims() {
		fmt.Fprintf(b, "%s=%d,", d, l.Sizes.Get(d))
	}
	fmt.Fprintf(b, "|sy=%d|sx=%d|den=%g,%g,%g\n",
		l.StrideY, l.StrideX,
		l.Density[tensor.Input], l.Density[tensor.Weight], l.Density[tensor.Output])
}

// appendHW encodes every model-relevant hardware field in a fixed
// order: integers as varints, floats as their IEEE-754 bits, the NoC
// list behind its length. The encoding is self-delimiting.
func appendHW(b []byte, cfg hw.Config) []byte {
	b = binary.AppendVarint(b, int64(cfg.NumPEs))
	b = binary.AppendVarint(b, int64(cfg.VectorWidth))
	b = binary.AppendVarint(b, cfg.L1Size)
	b = binary.AppendVarint(b, cfg.L2Size)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.OffchipBandwidth))
	b = binary.AppendVarint(b, int64(cfg.ElemBytes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cfg.ClockGHz))
	b = appendBool(b, cfg.SparseImbalance)
	b = binary.AppendUvarint(b, uint64(len(cfg.NoCs)))
	for _, m := range cfg.NoCs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Bandwidth))
		b = binary.AppendVarint(b, m.AvgLatency)
		b = appendBool(appendBool(b, m.Multicast), m.Reduction)
		b = binary.AppendVarint(b, int64(m.Channels))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// canonicalKey hashes the canonical encoding of a resolved analysis
// request. The hardware Name and NoC Names are presentation-only and
// excluded; the layer and dataflow names are kept because responses
// echo them.
func canonicalKey(r resolved) Key {
	var buf [640]byte
	b := core.AppendProfileIdentity(buf[:0], r.df, r.layer, r.cfg.NumPEs)
	return sha256.Sum256(appendHW(b, r.cfg))
}

// canonicalDSEKey hashes a DSE request's canonical encoding. The shard
// descriptor participates: a shard-scoped request computes a different
// space than the full sweep and must never share its cache entry.
func canonicalDSEKey(layer tensor.Layer, req DSERequest) Key {
	var b strings.Builder
	b.WriteString("dse\n")
	canonicalLayer(&b, layer)
	fmt.Fprintf(&b, "tmpl=%s|p1=%v|p2=%v|pes=%v|bws=%v|l1=%v|l2=%v|area=%g|power=%g|topk=%d\n",
		req.Template, req.P1, req.P2, req.PEs, req.BWs,
		req.L1Grid, req.L2Grid, req.AreaBudgetMM2, req.PowerBudgetMW, req.TopK)
	if sh := req.Shard; sh != nil {
		fmt.Fprintf(&b, "shard|%d/%d|pe=[%d,%d]|maps=%v\n",
			sh.Index, sh.Of, sh.PEMin, sh.PEMax, sh.Mappings)
	}
	return sha256.Sum256([]byte(b.String()))
}

// DSERouteKey hashes the canonical (layer, template, PE set) triple the
// fleet coordinator routes shards on. Profiles are keyed by (dataflow,
// layer, numPEs), so hashing exactly these fields — through the same
// canonical layer encoding the result cache uses — sends repeat sweeps
// of the same mapping family to the node whose ProfileCache already
// holds the cluster walks, whatever the bandwidth or buffer axes say.
func DSERouteKey(layer tensor.Layer, template string, pes []int) Key {
	var b strings.Builder
	b.WriteString("route\n")
	canonicalLayer(&b, layer)
	fmt.Fprintf(&b, "tmpl=%s|pes=%v\n", template, pes)
	return sha256.Sum256([]byte(b.String()))
}

// ResolveLayerSpec converts a LayerSpec into a concrete, validated
// layer — the same resolution the /v1/* handlers perform, exported for
// the fleet coordinator, which needs the layer to compute route keys
// before any request reaches a server.
func ResolveLayerSpec(ls LayerSpec) (tensor.Layer, error) { return resolveLayer(ls) }
