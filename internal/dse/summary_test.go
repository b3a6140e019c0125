package dse

import (
	"math/rand"
	"reflect"
	"testing"
)

// fuzzPoints decodes four bytes per point, at most 256 points. Tiny
// throughput, energy and EDP ranges force exact ties on every
// objective; the key fields collide too, with L2Bytes (the index)
// keeping every key distinct, as a sweep's are.
func fuzzPoints(data []byte) []Point {
	n := min(len(data)/4, 256)
	pts := make([]Point, n)
	for i := range pts {
		b := data[4*i : 4*i+4]
		pts[i] = Point{
			NumPEs: 64 << (b[3] % 4), P1: int(b[3]>>2) % 4, P2: int(b[3]>>4) % 2,
			BW: float64(b[3] >> 5), L2Bytes: int64(i),
			Throughput: float64(b[0] % 8), EnergyPJ: float64(b[1] % 8), EDP: float64(b[2] % 4),
		}
	}
	return pts
}

// FuzzDSESummary is the merge-of-shards property: split a point set
// into random parts, fold each part with Add in a shuffled order, and
// merge the parts in random order. The result must equal one fold of
// the whole set, its front must be the sorted Pareto oracle, and its
// optima the slice selectors'.
func FuzzDSESummary(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{3, 3, 1, 0, 3, 3, 1, 1, 3, 3, 1, 2}, int64(1)) // one design, three keys
	f.Add([]byte{1, 7, 2, 9, 7, 1, 2, 200, 4, 4, 2, 37, 4, 4, 0, 5, 7, 1, 3, 14}, int64(2))
	rng := rand.New(rand.NewSource(7))
	big := make([]byte, 4*96)
	rng.Read(big)
	f.Add(big, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		pts := fuzzPoints(data)
		rng := rand.New(rand.NewSource(seed))
		var one Summary
		for _, p := range pts {
			one.Add(p)
		}
		parts := make([][]Point, 1+rng.Intn(6))
		for _, p := range pts {
			k := rng.Intn(len(parts))
			parts[k] = append(parts[k], p)
		}
		var merged Summary
		for _, k := range rng.Perm(len(parts)) {
			var part Summary
			rng.Shuffle(len(parts[k]), func(i, j int) { parts[k][i], parts[k][j] = parts[k][j], parts[k][i] })
			for _, p := range parts[k] {
				part.Add(p)
			}
			merged.Merge(part)
		}
		if !reflect.DeepEqual(merged, one) {
			t.Fatalf("merged parts != one fold\nmerged: %+v\none:    %+v", merged, one)
		}
		want := Pareto(pts)
		SortPoints(want)
		if !reflect.DeepEqual(merged.Front, want) {
			t.Fatalf("front != sorted Pareto oracle\ngot:  %+v\nwant: %+v", merged.Front, want)
		}
		if len(pts) == 0 {
			return
		}
		thr, _ := ThroughputOpt(pts)
		eng, _ := EnergyOpt(pts)
		edp, _ := EDPOpt(pts)
		if merged.ThroughputOpt != thr || merged.EnergyOpt != eng || merged.EDPOpt != edp {
			t.Fatalf("optima (%+v, %+v, %+v) != selectors' (%+v, %+v, %+v)",
				merged.ThroughputOpt, merged.EnergyOpt, merged.EDPOpt, thr, eng, edp)
		}
	})
}

// TestOptimaOrderIndependent: designs tied on every objective resolve
// to the first in SortPoints order, whatever order they arrive in.
func TestOptimaOrderIndependent(t *testing.T) {
	a := Point{NumPEs: 64, P1: 16, Throughput: 8, EnergyPJ: 2, EDP: 5}
	b := Point{NumPEs: 128, P1: 16, Throughput: 8, EnergyPJ: 2, EDP: 7}
	c := Point{NumPEs: 256, P1: 16, Throughput: 4, EnergyPJ: 1, EDP: 5}
	d := Point{NumPEs: 256, P1: 64, Throughput: 4, EnergyPJ: 1, EDP: 9}
	for _, pts := range [][]Point{{a, b, c, d}, {d, c, b, a}, {b, d, a, c}} {
		if got, _ := ThroughputOpt(pts); got != a {
			t.Errorf("ThroughputOpt(%v) = %+v, want %+v", pts, got, a)
		}
		if got, _ := EnergyOpt(pts); got != c {
			t.Errorf("EnergyOpt(%v) = %+v, want %+v", pts, got, c)
		}
		if got, _ := EDPOpt(pts); got != a {
			t.Errorf("EDPOpt(%v) = %+v, want %+v", pts, got, a)
		}
	}
}

// TestSummaryMergeEmpty pins the identity edges: merging an empty
// summary changes nothing but the counters, and merging into an empty
// one copies the other's answer.
func TestSummaryMergeEmpty(t *testing.T) {
	var s Summary
	for _, p := range []Point{{NumPEs: 64, Throughput: 1, EnergyPJ: 2}, {NumPEs: 128, Throughput: 3, EnergyPJ: 1}} {
		s.Add(p)
	}
	s.Stats = Stats{Raw: 8, Explored: 8, Invoked: 2, Priced: 4, Valid: 2}
	got := s
	got.Front = append([]Point(nil), s.Front...)
	got.Merge(Summary{Stats: Stats{Raw: 1, Valid: 0}})
	if want := (Stats{Raw: 9, Explored: 8, Invoked: 2, Priced: 4, Valid: 2}); got.Stats != want {
		t.Fatalf("Stats = %+v, want %+v", got.Stats, want)
	}
	got.Stats = s.Stats
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("merging an empty summary changed %+v into %+v", s, got)
	}
	var into Summary
	into.Merge(s)
	if !reflect.DeepEqual(into, s) {
		t.Fatalf("merge into empty = %+v, want %+v", into, s)
	}
	if len(s.Front) != 1 || s.Front[0].NumPEs != 128 {
		t.Fatalf("front %+v, want the 128-PE design alone", s.Front)
	}
}

// TestSummarizeMatchesExplore: the folded answer equals the reduction
// of every point, with one worker or several.
func TestSummarizeMatchesExplore(t *testing.T) {
	sp := smallSpace()
	pts, stats := Explore(sp)
	front := Pareto(pts)
	SortPoints(front)
	thr, _ := ThroughputOpt(pts)
	eng, _ := EnergyOpt(pts)
	edp, _ := EDPOpt(pts)
	for _, workers := range []int{1, 2, 3} {
		sp.Workers = workers
		s := Summarize(sp)
		s.Stats.Elapsed = stats.Elapsed
		if s.Stats != stats {
			t.Errorf("workers=%d: Stats %+v, Explore's %+v", workers, s.Stats, stats)
		}
		if !reflect.DeepEqual(s.Front, front) {
			t.Errorf("workers=%d: front of %d points, Explore's %d", workers, len(s.Front), len(front))
		}
		if s.ThroughputOpt != thr || s.EnergyOpt != eng || s.EDPOpt != edp {
			t.Errorf("workers=%d: optima differ from the selectors'", workers)
		}
	}
}
