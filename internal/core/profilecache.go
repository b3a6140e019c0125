package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ProfileKey identifies one (dataflow, layer, numPEs) profile: the
// SHA-256 of a canonical encoding that is independent of the dataflow's
// surface spelling and of everything in hw.Config except the PE count.
type ProfileKey [32]byte

// profileKey canonicalizes exactly the inputs Profile depends on. The
// layer name stays in the key because profiles embed the spec whose
// layer name is echoed in reports; the hardware beyond NumPEs is
// deliberately absent — that is the point of the split. The encoding is
// built in a stack buffer, so a lookup hashes without allocating.
func profileKey(df dataflow.Dataflow, layer tensor.Layer, numPEs int) ProfileKey {
	var buf [512]byte
	return sha256.Sum256(AppendProfileIdentity(buf[:0], df, layer, numPEs))
}

// AppendProfileIdentity appends the canonical binary encoding of a
// (dataflow, layer, numPEs) triple to b: the PE count, the raw layer
// fields, the dataflow name, and the dataflow's directives in the
// augmented form of dataflow.Augment — at each cluster level every
// dimension d the level leaves unmentioned is encoded as the
// single-chunk TemporalMap(n,n) d entry Augment would add (n is d's
// size in the normalized layer), byte for byte like an explicit
// directive. Any surface spelling of one mapping (the builder, the
// DSL, an already augmented form) therefore encodes identically.
//
// Integers are varints, strings and size expressions carry their
// length, floats are their IEEE-754 bits, and the directive records are
// tagged and closed by an end tag, so the encoding is injective and
// stays so with further fields appended after it.
func AppendProfileIdentity(b []byte, df dataflow.Dataflow, layer tensor.Layer, numPEs int) []byte {
	b = binary.AppendVarint(b, int64(numPEs))
	b = AppendLayerIdentity(b, layer)
	b = appendString(b, df.Name)

	full := layer.Normalize().Sizes // Augment sizes implicit maps on the normalized layer
	var mentioned tensor.DimSet
	for _, d := range df.Directives {
		if d.IsCluster {
			b = appendImplicitMaps(b, mentioned, full)
			mentioned = 0
		} else {
			mentioned = mentioned.Add(d.Dim)
		}
		b = appendDirective(b, d)
	}
	b = appendImplicitMaps(b, mentioned, full)
	return append(b, tagEnd)
}

// AppendLayerIdentity appends the raw layer fields, in the encoding of
// AppendProfileIdentity: the name, the operator, the seven sizes, the
// strides and the densities' IEEE-754 bits.
func AppendLayerIdentity(b []byte, layer tensor.Layer) []byte {
	b = appendString(b, layer.Name)
	b = append(b, byte(layer.Op))
	for _, v := range layer.Sizes {
		b = binary.AppendVarint(b, int64(v))
	}
	b = binary.AppendVarint(b, int64(layer.StrideY))
	b = binary.AppendVarint(b, int64(layer.StrideX))
	for _, d := range layer.Density {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d))
	}
	return b
}

// Directive record tags of the identity encoding.
const (
	tagEnd byte = iota
	tagMap
	tagCluster
)

// appendImplicitMaps encodes the single-chunk temporal maps Augment
// appends to a cluster level for every dimension it does not mention.
func appendImplicitMaps(b []byte, mentioned tensor.DimSet, full tensor.Sizes) []byte {
	for d := tensor.Dim(0); d < tensor.NumDims; d++ {
		if !mentioned.Has(d) {
			sz := dataflow.Lit(full.Get(d))
			b = appendDirective(b, dataflow.TMap(sz, sz, d))
		}
	}
	return b
}

func appendDirective(b []byte, d dataflow.Directive) []byte {
	if d.IsCluster {
		return appendSizeExpr(append(b, tagCluster), d.Size)
	}
	b = append(b, tagMap, byte(d.Kind), byte(d.Dim))
	return appendSizeExpr(appendSizeExpr(b, d.Size), d.Offset)
}

func appendSizeExpr(b []byte, e dataflow.SizeExpr) []byte {
	b = binary.AppendVarint(b, int64(e.Const))
	b = binary.AppendUvarint(b, uint64(len(e.Terms)))
	for _, t := range e.Terms {
		b = binary.AppendVarint(append(b, byte(t.Dim)), int64(t.Coef))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// ProfileKeyFor exposes the canonical profile identity of a
// (dataflow, layer, numPEs) triple. Callers holding many requests use it
// to group the ones that share a profile — such groups price in a single
// PriceBatch walk (see AnalyzeDataflowCachedBatchCtx).
func ProfileKeyFor(df dataflow.Dataflow, layer tensor.Layer, numPEs int) ProfileKey {
	return profileKey(df, layer, numPEs)
}

// ProfileCache is the shared cache of LayerProfiles: the sharded LRU
// with a singleflight layer of internal/lru, keyed by profile identity,
// so concurrent requests for one (dataflow, layer, numPEs) triple
// profile once and share the immutable result. Profiles are safe to
// Price concurrently, so one cached entry serves any number of hardware
// points at once. Hits, Misses, Coalesced, Evictions and Len come from
// the embedded cache.
type ProfileCache struct {
	*lru.Cache[ProfileKey, *LayerProfile]
}

// DefaultProfileCache is the package-level cache shared by the tuner and
// the analysis service, sized for a full model zoo × dataflow × PE-grid
// sweep.
var DefaultProfileCache = NewProfileCache(4096)

// NewProfileCache builds a cache holding up to capacity profiles across
// its shards. A non-positive capacity disables storage (every request
// profiles; singleflight still coalesces concurrent duplicates).
func NewProfileCache(capacity int) *ProfileCache {
	return &ProfileCache{lru.New[ProfileKey, *LayerProfile](capacity)}
}

// ResolveError is a mapping dataflow.Resolve refused before any walk
// ran. The cached paths return it unwrapped, so a search can tell a
// candidate that never reached the engine from one the engine rejected
// with a type assertion; its message and errors.Is chain are the
// resolver's own.
type ResolveError struct{ Err error }

func (e *ResolveError) Error() string { return e.Err.Error() }
func (e *ResolveError) Unwrap() error { return e.Err }

// ProfileDataflow returns the profile for (df, layer, numPEs), resolving
// and profiling on a miss with at most one walk across concurrent
// callers. The second return reports whether the profile came from the
// LRU (callers that joined an in-flight computation report false).
// Errors are not cached; a resolver's is a *ResolveError.
func (c *ProfileCache) ProfileDataflow(df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, bool, error) {
	return c.ProfileDataflowCtx(context.Background(), df, layer, numPEs)
}

// ProfileDataflowCtx is ProfileDataflow with observability: cache hits,
// misses, and singleflight waits are recorded as events on the current
// obs span, and a miss runs the cluster walk under a "core.profile"
// span, so a trace shows exactly which requests paid for profiling and
// which rode the cache.
func (c *ProfileCache) ProfileDataflowCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, bool, error) {
	p, cached, err := c.Do(profileKey(df, layer, numPEs), func() (*LayerProfile, error) {
		obs.SpanFrom(ctx).Event("profile_cache.miss")
		spec, err := dataflow.Resolve(df, layer, numPEs)
		if err != nil {
			return nil, &ResolveError{err}
		}
		return ProfileCtx(ctx, spec)
	}, func(block func()) {
		_, wait := obs.Start(ctx, "core.profilecache.wait")
		block()
		wait.End()
		obs.SpanFrom(ctx).Event("profile_cache.coalesced")
	})
	if cached {
		obs.SpanFrom(ctx).Event("profile_cache.hit")
	}
	return p, cached, err
}

// ProfileDataflow resolves and profiles through the package-level cache.
func ProfileDataflow(df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, error) {
	p, _, err := DefaultProfileCache.ProfileDataflow(df, layer, numPEs)
	return p, err
}

// AnalyzeDataflowCached is the drop-in cached variant of AnalyzeDataflow:
// it fetches (or builds) the hardware-independent profile through the
// package-level cache and prices it under cfg, so callers varying only
// the hardware configuration share one cluster walk.
func AnalyzeDataflowCached(df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	return AnalyzeDataflowCachedCtx(context.Background(), df, layer, cfg)
}

// AnalyzeDataflowCachedCtx is AnalyzeDataflowCached with the profile
// fetch and the pricing traced under ctx's obs recorder.
func AnalyzeDataflowCachedCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	cfg = cfg.Normalize()
	p, _, err := DefaultProfileCache.ProfileDataflowCtx(ctx, df, layer, cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	return p.PriceCtx(ctx, cfg)
}

// AnalyzeDataflowCachedBatch prices many hardware configurations of one
// (dataflow, layer) pair with a single profile fetch and one batch walk.
func AnalyzeDataflowCachedBatch(df dataflow.Dataflow, layer tensor.Layer, cfgs []hw.Config) ([]*Result, error) {
	return AnalyzeDataflowCachedBatchCtx(context.Background(), df, layer, cfgs)
}

// AnalyzeDataflowCachedBatchCtx fetches (or builds) the profile for
// cfgs[0]'s PE count through the package-level cache and prices every
// configuration in one PriceBatch walk. The result and error contract
// is PriceBatch's: per-index results, nil slots for configurations that
// failed (a configuration with a different PE count simply fails its
// own slot). A profile-side failure (unresolvable mapping) fails the
// whole call.
func AnalyzeDataflowCachedBatchCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, cfgs []hw.Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return []*Result{}, nil
	}
	p, _, err := DefaultProfileCache.ProfileDataflowCtx(ctx, df, layer, cfgs[0].Normalize().NumPEs)
	if err != nil {
		return nil, err
	}
	return p.PriceBatchCtx(ctx, cfgs)
}
