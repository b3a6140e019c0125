package dse

import (
	"math/rand"
	"reflect"
	"testing"
)

// coverCheck verifies the partition invariants: no empty shards, no
// overlapping (pe, p1) pairs, and no dropped pairs. It reports the
// shard count.
func coverCheck(t *testing.T, pes, p1 []int, shards []Shard) int {
	t.Helper()
	type pair struct{ pe, p1 int }
	seen := map[pair]int{}
	for i, sh := range shards {
		if sh.Points() == 0 {
			t.Fatalf("shard %d is empty: %+v", i, sh)
		}
		if sh.Index != i || sh.Of != len(shards) {
			t.Fatalf("shard %d mislabeled: Index=%d Of=%d want %d/%d",
				i, sh.Index, sh.Of, i, len(shards))
		}
		for _, pe := range sh.PEs {
			for _, k := range sh.P1 {
				p := pair{pe, k}
				if prev, dup := seen[p]; dup {
					t.Fatalf("pair (%d,%d) covered by shards %d and %d", pe, k, prev, i)
				}
				seen[p] = i
			}
		}
	}
	if want := len(pes) * len(p1); len(seen) != want {
		t.Fatalf("partition covers %d of %d pairs", len(seen), want)
	}
	return len(shards)
}

func TestPartitionCovers(t *testing.T) {
	pes := []int{64, 128, 256, 512}
	p1 := []int{8, 16, 32, 64, 128}
	for _, target := range []int{-3, 0, 1, 2, 3, 4, 5, 7, 10, 19, 20, 21, 1000} {
		shards := Partition(pes, p1, target)
		n := coverCheck(t, pes, p1, shards)
		if target >= 1 && target <= len(pes)*len(p1) && n > 0 {
			// The shard count lands within one PE-row of the target: the
			// per-PE knob split uses ceil division.
			if n < min(target, len(pes)) {
				t.Errorf("target %d produced only %d shards", target, n)
			}
		}
		// Single-PE granularity whenever the target asks for at least one
		// shard per PE count — the routing affinity contract.
		if target >= len(pes)*len(p1) {
			for _, sh := range shards {
				if len(sh.PEs) != 1 || len(sh.P1) != 1 {
					t.Fatalf("max target left a coarse shard: %+v", sh)
				}
			}
		}
	}
}

func TestPartitionEmptyAxes(t *testing.T) {
	if s := Partition(nil, []int{1}, 4); s != nil {
		t.Fatalf("Partition with no PEs = %+v, want nil", s)
	}
	if s := Partition([]int{1}, nil, 4); s != nil {
		t.Fatalf("Partition with no knobs = %+v, want nil", s)
	}
}

// TestPartitionSinglePEAffinity pins the routing contract: once target
// reaches the PE-axis length every shard spans exactly one PE count.
func TestPartitionSinglePEAffinity(t *testing.T) {
	pes := []int{16, 32, 48, 64, 80, 96}
	p1 := []int{1, 2, 4}
	for target := len(pes); target <= len(pes)*len(p1); target++ {
		for _, sh := range Partition(pes, p1, target) {
			if len(sh.PEs) != 1 {
				t.Fatalf("target %d: shard spans %d PE counts: %+v", target, len(sh.PEs), sh)
			}
		}
	}
}

// FuzzPartition drives the partitioner over arbitrary axis lengths and
// targets, checking the no-empty / no-overlap / no-drop invariants.
func FuzzPartition(f *testing.F) {
	f.Add(uint8(4), uint8(5), 8)
	f.Add(uint8(1), uint8(1), 1)
	f.Add(uint8(64), uint8(7), 47)
	f.Add(uint8(3), uint8(9), -2)
	f.Add(uint8(200), uint8(200), 1<<20)
	f.Fuzz(func(t *testing.T, npes, np1 uint8, target int) {
		pes := make([]int, npes)
		for i := range pes {
			pes[i] = 16 * (i + 1)
		}
		p1 := make([]int, np1)
		for i := range p1 {
			p1[i] = 3*i + 1
		}
		shards := Partition(pes, p1, target)
		if len(pes) == 0 || len(p1) == 0 {
			if shards != nil {
				t.Fatalf("empty axes produced shards: %+v", shards)
			}
			return
		}
		type pair struct{ pe, p1 int }
		seen := map[pair]bool{}
		for _, sh := range shards {
			if sh.Points() == 0 {
				t.Fatalf("empty shard: %+v", sh)
			}
			for _, pe := range sh.PEs {
				for _, k := range sh.P1 {
					p := pair{pe, k}
					if seen[p] {
						t.Fatalf("pair (%d,%d) covered twice", pe, k)
					}
					seen[p] = true
				}
			}
		}
		if want := len(pes) * len(p1); len(seen) != want {
			t.Fatalf("covered %d of %d pairs", len(seen), want)
		}
	})
}

func TestSortPointsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mk := func() []Point {
		pts := make([]Point, 40)
		for i := range pts {
			pts[i] = Point{
				NumPEs: 16 * (1 + rng.Intn(4)), P1: 1 << rng.Intn(4),
				P2: 1 + rng.Intn(3), BW: float64(1 + rng.Intn(5)),
				L1Bytes: int64(64 << rng.Intn(3)), L2Bytes: int64(4096 << rng.Intn(3)),
			}
		}
		return pts
	}
	a := mk()
	b := append([]Point(nil), a...)
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	SortPoints(a)
	SortPoints(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SortPoints is not a canonical order")
	}
}
