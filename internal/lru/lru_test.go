package lru

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type key [32]byte

func keyOf(n int) key {
	var k key
	// Spread across shards: shardFor uses k[0].
	k[0] = byte(n)
	k[1] = byte(n >> 8)
	k[2] = byte(n >> 16)
	return k
}

func TestCacheDoStoresAndHits(t *testing.T) {
	c := New[key, any](64)
	var computes atomic.Int64
	fn := func() (any, error) {
		computes.Add(1)
		return "value", nil
	}
	v, cached, err := c.Do(keyOf(1), fn, nil)
	if err != nil || cached || v != "value" {
		t.Fatalf("first Do = (%v, %v, %v)", v, cached, err)
	}
	v, cached, err = c.Do(keyOf(1), fn, nil)
	if err != nil || !cached || v != "value" {
		t.Fatalf("second Do = (%v, %v, %v); want cached", v, cached, err)
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times; want 1", computes.Load())
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d; want 1/1", c.Hits(), c.Misses())
	}
	if v, ok := c.Get(keyOf(1)); !ok || v != "value" {
		t.Errorf("Get = (%v, %v)", v, ok)
	}
	if c.Hits() != 2 {
		t.Errorf("Get did not count a hit")
	}
	if _, ok := c.Get(keyOf(2)); ok || c.Misses() != 1 {
		t.Errorf("Get of an absent key = %v, misses=%d; want absent and uncounted", ok, c.Misses())
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := New[key, int](64)
	var computes, waits atomic.Int64
	gate := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	results := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, cached, err := c.Do(keyOf(7), func() (int, error) {
				computes.Add(1)
				<-gate // hold every concurrent caller on one computation
				return 42, nil
			}, func(block func()) {
				waits.Add(1)
				block()
			})
			if err != nil || v != 42 {
				t.Errorf("waiter %d: (%v, %v)", i, v, err)
			}
			results[i] = cached
		}(i)
	}
	// Let the goroutines pile onto the in-flight call, then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for c.Coalesced() < waiters-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if computes.Load() != 1 {
		t.Errorf("computed %d times under contention; want 1", computes.Load())
	}
	for i, cached := range results {
		if cached {
			t.Errorf("waiter %d reported cached=true; joiners must report false", i)
		}
	}
	if c.Coalesced() != waiters-1 || c.Misses() != 1 {
		t.Errorf("coalesced=%d misses=%d; want %d/1", c.Coalesced(), c.Misses(), waiters-1)
	}
	if waits.Load() != waiters-1 {
		t.Errorf("wait hook ran %d times; want once per joiner (%d)", waits.Load(), waiters-1)
	}
}

func TestCacheErrorsNotStored(t *testing.T) {
	c := New[key, any](64)
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do(keyOf(3), fn, nil); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v; want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len=%d", c.Len())
	}
	v, cached, err := c.Do(keyOf(3), fn, nil)
	if err != nil || cached || v != "ok" {
		t.Fatalf("retry after error = (%v, %v, %v)", v, cached, err)
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	c := New[key, any](64)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("panic did not propagate")
			}
		}()
		c.Do(keyOf(9), func() (any, error) { panic("kaboom") }, nil) //nolint:errcheck
	}()
	// The in-flight marker must be gone: a fresh Do computes normally.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do(keyOf(9), func() (any, error) { return "recovered", nil }, nil)
		if err != nil || v != "recovered" {
			t.Errorf("Do after panic = (%v, %v)", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Do after panic deadlocked on a stale in-flight entry")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 16 over 16 shards = one entry per shard; two distinct
	// keys forced into the same shard must evict the older one.
	c := New[key, string](16)
	var same1, same2 key
	same1[0], same2[0] = 5, 5 // same shard (shardFor uses k[0])
	same2[1] = 1              // distinct key
	fn := func(v string) func() (string, error) {
		return func() (string, error) { return v, nil }
	}
	c.Do(same1, fn("a"), nil) //nolint:errcheck
	c.Do(same2, fn("b"), nil) //nolint:errcheck
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d; want 1 (per-shard capacity 1)", c.Evictions())
	}
	if _, ok := c.Get(same1); ok {
		t.Errorf("LRU entry survived eviction")
	}
	if v, ok := c.Get(same2); !ok || v != "b" {
		t.Errorf("most recent entry missing: (%v, %v)", v, ok)
	}
}

func TestCacheDisabledStillCoalesces(t *testing.T) {
	c := New[key, int](0)
	var computes atomic.Int64
	fn := func() (int, error) {
		computes.Add(1)
		return 1, nil
	}
	c.Do(keyOf(2), fn, nil) //nolint:errcheck
	c.Do(keyOf(2), fn, nil) //nolint:errcheck
	if computes.Load() != 2 {
		t.Errorf("disabled cache computed %d times; want 2", computes.Load())
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache stored %d entries", c.Len())
	}
}

// TestCacheHammer drives a tiny cache from many goroutines over more
// keys than it holds, so hits, misses, joins and evictions interleave.
// Every caller must get its own key's value, every call must land in
// exactly one counter, and the shards must stay within capacity. Run
// with -race.
func TestCacheHammer(t *testing.T) {
	const capacity, workers, iters, keys = 3, 16, 20, 12
	c := New[key, int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (w*3 + i) % keys
				v, _, err := c.Do(keyOf(n), func() (int, error) {
					time.Sleep(10 * time.Microsecond) // widen the in-flight window
					return n, nil
				}, nil)
				if err != nil || v != n {
					t.Errorf("key %d: got (%v, %v)", n, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Misses() == 0 {
		t.Fatal("expected cache misses")
	}
	if got := c.Hits() + c.Misses() + c.Coalesced(); got != workers*iters {
		t.Errorf("hits+misses+coalesced = %d; want %d calls", got, workers*iters)
	}
	if c.Len() > capacity+shards { // per-shard rounding allows slight overshoot
		t.Fatalf("cache grew past capacity: %d", c.Len())
	}
}
