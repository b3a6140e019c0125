package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Key identifies one canonical request: the SHA-256 of its canonical
// encoding. It keys the result cache and the fleet's routing ring.
type Key [32]byte

// String returns the hex form served back to clients.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// The canonicalizers turn a resolved request into a stable cache key.
// The analyze key is core's profile identity (the raw layer fields and
// the dataflow in Augment's canonical form, so any surface spelling of
// the same mapping — builder vs DSL, whitespace, named vs inline —
// encodes identically) followed by the normalized hardware
// configuration, field by field in a fixed order, hashed with SHA-256.
// The DSE and routing keys encode the layer the same way.

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
// space than the full sweep and must never share its cache entry. The
// analyze and fusion keys share the result cache; their encodings start
// with a positive PE count as a zigzag varint, whose first byte is even,
// while this one starts with the tag "dse" behind its odd length byte,
// so no DSE encoding equals theirs.
func canonicalDSEKey(layer tensor.Layer, req DSERequest) Key {
	var buf [512]byte
	b := appendString(buf[:0], "dse")
	b = core.AppendLayerIdentity(b, layer)
	b = appendString(b, req.Template)
	b = appendInts(b, req.P1)
	b = appendInts(b, req.P2)
	b = appendInts(b, req.PEs)
	b = appendFloats(b, req.BWs)
	b = appendInts(b, req.L1Grid)
	b = appendInts(b, req.L2Grid)
	b = appendFloats(b, []float64{req.AreaBudgetMM2, req.PowerBudgetMW})
	b = binary.AppendVarint(b, int64(req.TopK))
	sh := req.Shard
	b = appendBool(b, sh != nil)
	if sh != nil {
		b = appendInts(b, []int{sh.Index, sh.Of, sh.PEMin, sh.PEMax})
		b = binary.AppendUvarint(b, uint64(len(sh.Mappings)))
		for _, m := range sh.Mappings {
			b = appendString(b, m)
		}
	}
	return sha256.Sum256(b)
}

// DSERouteKey hashes the canonical (layer, template, PE set) triple the
// fleet coordinator routes shards on. Profiles are keyed by (dataflow,
// layer, numPEs), so hashing exactly these fields — with the layer
// encoded as in the result cache's keys — sends repeat sweeps of the
// same mapping family to the node whose ProfileCache already holds the
// cluster walks, whatever the bandwidth or buffer axes say.
func DSERouteKey(layer tensor.Layer, template string, pes []int) Key {
	var buf [256]byte
	b := appendString(buf[:0], "route")
	b = core.AppendLayerIdentity(b, layer)
	b = appendString(b, template)
	b = appendInts(b, pes)
	return sha256.Sum256(b)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendInts encodes a list as its length followed by varints.
func appendInts[T int | int64](b []byte, vs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// appendFloats encodes a list as its length followed by IEEE-754 bits.
func appendFloats(b []byte, vs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// ResolveLayerSpec converts a LayerSpec into a concrete, validated
// layer — the same resolution the /v1/* handlers perform, exported for
// the fleet coordinator, which needs the layer to compute route keys
// before any request reaches a server.
func ResolveLayerSpec(ls LayerSpec) (tensor.Layer, error) { return resolveLayer(ls) }
