// Package lru is the sharded LRU cache with a singleflight layer behind
// both of the repo's caches: the analysis service's result cache and
// the cost engine's profile cache. Concurrent requests for one key
// compute once and share the result; finished results stay resident
// until the least recently used of a full shard is evicted.
package lru

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// shards spreads keys over independent locks by the key's first byte.
// Keys are SHA-256 digests, so that byte is uniform.
const shards = 16

// ErrPanicked is what callers waiting on a computation receive when
// the computation panicked.
var ErrPanicked = errors.New("lru: computation panicked")

// Cache maps digest keys to values. Stored values are shared between
// callers and must be treated as immutable.
type Cache[K ~[32]byte, V any] struct {
	shards [shards]shard[K, V]

	hits      atomic.Int64 // served from the LRU
	misses    atomic.Int64 // computed by the caller
	coalesced atomic.Int64 // joined an in-flight computation
	evictions atomic.Int64
}

type shard[K ~[32]byte, V any] struct {
	mu       sync.Mutex
	capacity int
	order    list.List // front = most recently used
	items    map[K]*list.Element
	inflight map[K]*call[V]
}

type entry[K ~[32]byte, V any] struct {
	key K
	val V
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache holding up to capacity entries across its shards.
// A non-positive capacity disables storage: every Do computes, and
// singleflight still coalesces concurrent duplicates.
func New[K ~[32]byte, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{}
	per := capacity / shards
	if capacity > 0 && per == 0 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		s.items = map[K]*list.Element{}
		s.inflight = map[K]*call[V]{}
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] { return &c.shards[k[0]%shards] }

// Get returns the stored value for k, counting a hit when present. A
// miss is not counted here — Do owns miss accounting — so callers can
// probe for a fast path without skewing the hit ratio.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Do returns the value for k, computing it with fn at most once across
// concurrent callers. cached reports an LRU hit; callers that joined an
// in-flight computation report false. Errors are not stored. wait, when
// not nil, runs a joining caller's blocking wait (block), so the caller
// can trace how long it waited.
func (c *Cache[K, V]) Do(k K, fn func() (V, error), wait func(block func())) (val V, cached bool, err error) {
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true, nil
	}
	if cl, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		block := func() { <-cl.done }
		if wait != nil {
			wait(block)
		} else {
			block()
		}
		return cl.val, false, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	s.inflight[k] = cl
	s.mu.Unlock()
	c.misses.Add(1)

	finished := false
	defer func() {
		if !finished { // fn panicked: release waiters before unwinding
			cl.err = ErrPanicked
			c.finish(s, k, cl, false)
		}
	}()
	cl.val, cl.err = fn()
	finished = true
	c.finish(s, k, cl, cl.err == nil)
	return cl.val, false, cl.err
}

// finish publishes a completed computation: it removes the in-flight
// marker, stores a successful result, and wakes the waiters.
func (c *Cache[K, V]) finish(s *shard[K, V], k K, cl *call[V], store bool) {
	s.mu.Lock()
	delete(s.inflight, k)
	if store && s.capacity > 0 {
		s.items[k] = s.order.PushFront(&entry[K, V]{key: k, val: cl.val})
		for s.order.Len() > s.capacity {
			last := s.order.Back()
			s.order.Remove(last)
			delete(s.items, last.Value.(*entry[K, V]).key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	close(cl.done)
}

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Hits, Misses, Coalesced and Evictions expose the cache counters.
func (c *Cache[K, V]) Hits() int64      { return c.hits.Load() }
func (c *Cache[K, V]) Misses() int64    { return c.misses.Load() }
func (c *Cache[K, V]) Coalesced() int64 { return c.coalesced.Load() }
func (c *Cache[K, V]) Evictions() int64 { return c.evictions.Load() }
