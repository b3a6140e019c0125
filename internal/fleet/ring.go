// Package fleet coordinates distributed DSE and fusion sweeps: it cuts
// a design space (PE-count and tile-knob axes, or a fusion budget grid)
// into shards, runs them on a pool of maestro-serve nodes through one
// shard runner, and merges the partial answers as shards complete.
//
// Routing is deterministic: shards hash onto a consistent ring over the
// node set keyed by the canonical (layer, template, PE subset) triple,
// or (model, dataflow, hardware) for fusion — what the servers' profile
// caches are warmed by — and are placed with bounded loads, so no node
// takes more than its even share of a sweep while a repeated sweep
// lands each shard on the node that already holds its profiles. Node
// loss is survived by walking the ring: shards stranded behind a
// tripped circuit breaker re-dispatch to the next healthy node, with
// at-most-once result accounting, and a straggler watchdog steals the
// slowest shard onto an idle node when one server falls far behind.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/serve"
)

// vnodesPerHost is the ring's virtual-node fan-out. 64 keeps the
// per-host load spread within a few percent for small pools while the
// ring stays tiny (a 16-node fleet is 1024 entries).
const vnodesPerHost = 64

type vnode struct {
	hash uint64
	host int // index into ring.hosts
}

// ring is an immutable consistent-hash ring over the fleet's hosts.
type ring struct {
	hosts  []string
	vnodes []vnode // sorted by hash
}

func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

func newRing(hosts []string) *ring {
	r := &ring{hosts: hosts}
	for hi, h := range hosts {
		for v := 0; v < vnodesPerHost; v++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", h, v)), host: hi})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.host < b.host // stable under (vanishingly unlikely) hash ties
	})
	return r
}

// order returns every host exactly once, in ring-walk order starting at
// the key's position: the first entry is the key's ring primary.
// placeBounded builds shard routes from it. The order depends only on
// the host set and the key, so re-dispatch decisions are reproducible.
func (r *ring) order(key serve.Key) []string {
	start := sort.Search(len(r.vnodes), func(i int) bool {
		return r.vnodes[i].hash >= binary.BigEndian.Uint64(key[:8])
	})
	out := make([]string, 0, len(r.hosts))
	seen := make([]bool, len(r.hosts))
	for i := 0; i < len(r.vnodes) && len(out) < len(r.hosts); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if !seen[v.host] {
			seen[v.host] = true
			out = append(out, r.hosts[v.host])
		}
	}
	return out
}

// placeBounded routes keys, in order, with bounded loads (Mirrokni,
// Thorup and Zadimoghaddam, "Consistent Hashing with Bounded Loads",
// SODA 2018): each key goes to the first host on its walk that holds
// fewer than ⌈keys/hosts⌉ of the keys placed before it, and its
// failover route is that host followed by the rest of the walk. A key
// leaves its ring primary only when the primary is full, and the
// routes depend only on the host set and the keys.
func (r *ring) placeBounded(keys []serve.Key) [][]string {
	limit := (len(keys) + len(r.hosts) - 1) / len(r.hosts)
	load := make(map[string]int, len(r.hosts))
	routes := make([][]string, len(keys))
	for k, key := range keys {
		walk := r.order(key)
		i := 0
		for load[walk[i]] >= limit {
			i++ // some host is below the limit: fewer than hosts×limit keys are placed
		}
		h := walk[i]
		copy(walk[1:i+1], walk[:i]) // move h to the front
		walk[0] = h
		routes[k] = walk
		load[h]++
	}
	return routes
}
