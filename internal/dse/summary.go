package dse

import "slices"

// Summary is what a sweep reports (the paper's Figure 13): its Stats,
// the throughput-, energy- and EDP-optimal designs, and the Pareto
// front. Summaries merge, so each worker or fleet shard folds its own
// points and the parts combine, in any order, into the same answer.
type Summary struct {
	Stats Stats
	// The optima are set once Front is non-empty.
	ThroughputOpt, EnergyOpt, EDPOpt Point
	// Front is the throughput/energy Pareto front in SortPoints order.
	Front []Point
}

// Add folds one valid design into the optima and the front. Stats is
// left alone: the sweep counts what it explored.
func (s *Summary) Add(p Point) {
	s.fold(&p, &p, &p)
	s.addFront(&p)
}

// Merge folds another summary in: the counters add up, the optima and
// the front are those of the union. Elapsed belongs to the caller.
func (s *Summary) Merge(o Summary) {
	s.Stats.Raw += o.Stats.Raw
	s.Stats.Explored += o.Stats.Explored
	s.Stats.Invoked += o.Stats.Invoked
	s.Stats.Priced += o.Stats.Priced
	s.Stats.Valid += o.Stats.Valid
	if len(o.Front) == 0 {
		return
	}
	s.fold(&o.ThroughputOpt, &o.EnergyOpt, &o.EDPOpt)
	for i := range o.Front {
		s.addFront(&o.Front[i])
	}
}

// fold takes each candidate that beats its objective's optimum; an
// empty summary takes all three.
func (s *Summary) fold(thr, energy, edp *Point) {
	empty := len(s.Front) == 0
	if empty || betterThroughput(thr, &s.ThroughputOpt) {
		s.ThroughputOpt = *thr
	}
	if empty || betterEnergy(energy, &s.EnergyOpt) {
		s.EnergyOpt = *energy
	}
	if empty || betterEDP(edp, &s.EDPOpt) {
		s.EDPOpt = *edp
	}
}

// addFront folds p into the front: p enters unless a member dominates
// it, and evicts the members it dominates. Equal designs do not
// dominate each other, so every copy stays, as in Pareto.
func (s *Summary) addFront(p *Point) {
	for i := range s.Front {
		if dominates(&s.Front[i], p) {
			return
		}
	}
	s.Front = slices.DeleteFunc(s.Front, func(q Point) bool { return dominates(p, &q) })
	i, _ := slices.BinarySearchFunc(s.Front, *p, comparePoints)
	s.Front = slices.Insert(s.Front, i, *p)
}

// dominates reports whether a has higher-or-equal throughput and
// lower-or-equal energy than b, strictly better in one.
func dominates(a, b *Point) bool {
	return a.Throughput >= b.Throughput && a.EnergyPJ <= b.EnergyPJ &&
		(a.Throughput > b.Throughput || a.EnergyPJ < b.EnergyPJ)
}

// The objectives' orders, shared by Summary and the slice selectors:
// each reports whether a is the better design. Throughput breaks its
// ties on lower energy and energy on higher throughput; any tie left
// falls to SortPoints's order, so no optimum depends on the order its
// points arrive in.

func betterThroughput(a, b *Point) bool {
	if a.Throughput != b.Throughput {
		return a.Throughput > b.Throughput
	}
	if a.EnergyPJ != b.EnergyPJ {
		return a.EnergyPJ < b.EnergyPJ
	}
	return comparePoints(*a, *b) < 0
}

func betterEnergy(a, b *Point) bool {
	if a.EnergyPJ != b.EnergyPJ {
		return a.EnergyPJ < b.EnergyPJ
	}
	if a.Throughput != b.Throughput {
		return a.Throughput > b.Throughput
	}
	return comparePoints(*a, *b) < 0
}

func betterEDP(a, b *Point) bool {
	if a.EDP != b.EDP {
		return a.EDP < b.EDP
	}
	return comparePoints(*a, *b) < 0
}

// ThroughputOpt returns the highest-throughput point (ties: lower
// energy, then SortPoints's order).
func ThroughputOpt(pts []Point) (Point, bool) { return pick(pts, betterThroughput) }

// EnergyOpt returns the lowest-energy point (ties: higher throughput,
// then SortPoints's order).
func EnergyOpt(pts []Point) (Point, bool) { return pick(pts, betterEnergy) }

// EDPOpt returns the lowest energy-delay-product point (ties:
// SortPoints's order).
func EDPOpt(pts []Point) (Point, bool) { return pick(pts, betterEDP) }

func pick(pts []Point, better func(a, b *Point) bool) (Point, bool) {
	if len(pts) == 0 {
		return Point{}, false
	}
	best := &pts[0]
	for i := 1; i < len(pts); i++ {
		if better(&pts[i], best) {
			best = &pts[i]
		}
	}
	return *best, true
}
