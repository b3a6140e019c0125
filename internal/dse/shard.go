package dse

import (
	"cmp"
	"slices"
)

// Shard is one partition of a sweep's (PE count × first tile knob)
// plane: the sub-space spanned by Shard.PEs × Shard.P1 with every other
// axis (P2, bandwidths, buffer grids) inherited from the full space.
// The fleet coordinator dispatches one shard per service call and
// routes it by the shard's PE set, so repeat sweeps land each PE
// count's profiles on the node whose cache already holds them.
type Shard struct {
	// Index is the shard's position in the partition, 0-based.
	Index int
	// Of is the partition size (every shard of one Partition call
	// carries the same value).
	Of int
	// PEs is the contiguous slice of the sweep's PE axis this shard
	// covers.
	PEs []int
	// P1 is the contiguous slice of the sweep's first knob axis this
	// shard covers.
	P1 []int
}

// Partition splits the pes × p1 plane into at most target shards, none
// empty, pairwise disjoint, jointly covering every (pe, p1) pair
// exactly once. Axes are partitioned contiguously in input order.
//
// The PE axis splits first — profiles are keyed by (dataflow, layer,
// numPEs), so a shard that spans a single PE count keeps a node's
// profile cache hot — and only once every shard holds one PE count
// does the knob axis split further. target values above len(pes) ×
// len(p1) are clamped; target < 1 yields a single shard. Empty axes
// yield nil.
func Partition(pes, p1 []int, target int) []Shard {
	if len(pes) == 0 || len(p1) == 0 {
		return nil
	}
	if target < 1 {
		target = 1
	}
	if max := len(pes) * len(p1); target > max {
		target = max
	}
	var shards []Shard
	if target <= len(pes) {
		for _, chunk := range chunks(pes, target) {
			shards = append(shards, Shard{PEs: chunk, P1: p1})
		}
	} else {
		// One shard per PE count, then split the knob axis to approach
		// the target. ceil division keeps the product ≥ target without
		// overshooting per-PE splits beyond len(p1).
		perPE := (target + len(pes) - 1) / len(pes)
		for _, pe := range pes {
			for _, kchunk := range chunks(p1, perPE) {
				shards = append(shards, Shard{PEs: []int{pe}, P1: kchunk})
			}
		}
	}
	for i := range shards {
		shards[i].Index = i
		shards[i].Of = len(shards)
	}
	return shards
}

// chunks splits s into n contiguous non-empty pieces as evenly as
// possible (n is clamped to len(s)).
func chunks(s []int, n int) [][]int {
	if n > len(s) {
		n = len(s)
	}
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(s)/n, (i+1)*len(s)/n
		out = append(out, s[lo:hi])
	}
	return out
}

// Points counts the (pe, p1) pairs the shard covers.
func (sh Shard) Points() int { return len(sh.PEs) * len(sh.P1) }

// SortPoints orders points canonically — by PE count, knobs, bandwidth,
// then buffer capacities — so fronts assembled in nondeterministic
// completion order (parallel workers, fleet shards) compare equal
// bit-for-bit.
func SortPoints(pts []Point) { slices.SortFunc(pts, comparePoints) }

// comparePoints is SortPoints's order.
func comparePoints(a, b Point) int {
	return cmp.Or(
		cmp.Compare(a.NumPEs, b.NumPEs),
		cmp.Compare(a.P1, b.P1),
		cmp.Compare(a.P2, b.P2),
		cmp.Compare(a.BW, b.BW),
		cmp.Compare(a.L1Bytes, b.L1Bytes),
		cmp.Compare(a.L2Bytes, b.L2Bytes))
}
