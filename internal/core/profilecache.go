package core

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/hw"
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

const profileShards = 16

// ProfileCache is a sharded LRU of LayerProfiles with a singleflight
// layer, mirroring internal/serve's result cache: concurrent requests
// for the same (dataflow, layer, numPEs) triple profile once and share
// the immutable result. Profiles are safe to Price concurrently, so one
// cached entry serves any number of hardware points at once.
type ProfileCache struct {
	shards [profileShards]*profileShard

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

type profileShard struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[ProfileKey]*list.Element
	inflight map[ProfileKey]*profileCall
}

type profileEntry struct {
	key ProfileKey
	val *LayerProfile
}

type profileCall struct {
	done chan struct{}
	val  *LayerProfile
	err  error
}

// DefaultProfileCache is the package-level cache shared by the tuner and
// the analysis service, sized for a full model zoo × dataflow × PE-grid
// sweep.
var DefaultProfileCache = NewProfileCache(4096)

// NewProfileCache builds a cache holding up to capacity profiles across
// its shards. A non-positive capacity disables storage (every request
// profiles; singleflight still coalesces concurrent duplicates).
func NewProfileCache(capacity int) *ProfileCache {
	c := &ProfileCache{}
	per := capacity / profileShards
	if capacity > 0 && per == 0 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &profileShard{
			capacity: per,
			order:    list.New(),
			items:    map[ProfileKey]*list.Element{},
			inflight: map[ProfileKey]*profileCall{},
		}
	}
	return c
}

func (c *ProfileCache) shardFor(k ProfileKey) *profileShard {
	return c.shards[k[0]%profileShards]
}

// ProfileDataflow returns the profile for (df, layer, numPEs), resolving
// and profiling on a miss with at most one walk across concurrent
// callers. The second return reports whether the profile came from the
// LRU (callers that joined an in-flight computation report false, like
// the serve cache's Do). Errors (e.g. an unresolvable mapping) are not
// cached.
func (c *ProfileCache) ProfileDataflow(df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, bool, error) {
	return c.ProfileDataflowCtx(context.Background(), df, layer, numPEs)
}

// ProfileDataflowCtx is ProfileDataflow with observability: cache hits,
// misses, and singleflight waits are recorded as events on the current
// obs span, and a miss runs the cluster walk under a "core.profile"
// span, so a trace shows exactly which requests paid for profiling and
// which rode the cache.
func (c *ProfileCache) ProfileDataflowCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, bool, error) {
	k := profileKey(df, layer, numPEs)
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		obs.SpanFrom(ctx).Event("profile_cache.hit")
		return el.Value.(*profileEntry).val, true, nil
	}
	if cl, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		_, wait := obs.Start(ctx, "core.profilecache.wait")
		<-cl.done
		wait.End()
		obs.SpanFrom(ctx).Event("profile_cache.coalesced")
		return cl.val, false, cl.err
	}
	cl := &profileCall{done: make(chan struct{})}
	s.inflight[k] = cl
	s.mu.Unlock()
	c.misses.Add(1)
	obs.SpanFrom(ctx).Event("profile_cache.miss")

	finished := false
	defer func() {
		if !finished { // profiling panicked: release waiters before unwinding
			cl.err = fmt.Errorf("core: profile computation panicked")
			c.finish(s, k, cl, false)
		}
	}()
	var spec *dataflow.Spec
	spec, cl.err = dataflow.Resolve(df, layer, numPEs)
	if cl.err == nil {
		cl.val, cl.err = ProfileCtx(ctx, spec)
	}
	finished = true
	c.finish(s, k, cl, cl.err == nil)
	return cl.val, false, cl.err
}

func (c *ProfileCache) finish(s *profileShard, k ProfileKey, cl *profileCall, store bool) {
	s.mu.Lock()
	delete(s.inflight, k)
	if store && s.capacity > 0 {
		s.items[k] = s.order.PushFront(&profileEntry{key: k, val: cl.val})
		for s.order.Len() > s.capacity {
			last := s.order.Back()
			s.order.Remove(last)
			delete(s.items, last.Value.(*profileEntry).key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	close(cl.done)
}

// Len returns the number of cached profiles.
func (c *ProfileCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Hits, Misses, Coalesced and Evictions expose the cache counters.
func (c *ProfileCache) Hits() int64      { return c.hits.Load() }
func (c *ProfileCache) Misses() int64    { return c.misses.Load() }
func (c *ProfileCache) Coalesced() int64 { return c.coalesced.Load() }
func (c *ProfileCache) Evictions() int64 { return c.evictions.Load() }

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
