package core

import (
	"repro/internal/reuse"
	"repro/internal/tensor"
)

// loopClass is one choice for a loop's position within a data-iteration
// case: whether the loop sits at its first index, at its final index, and
// how many concrete steps the choice covers.
type loopClass struct {
	first bool
	last  bool
	count int64
}

// classChoices is one loop's list of class choices for a case sweep:
// never more than three (first, final, steady), so it lives by value.
type classChoices struct {
	c [3]loopClass
	n int
}

func (cc *classChoices) add(lc loopClass) {
	cc.c[cc.n] = lc
	cc.n++
}

// maxLoops bounds a level's temporal nest: every dimension appears once
// per level, and the fold pseudo-loop only exists alongside a spatial map,
// which is not a temporal loop itself.
const maxLoops = int(tensor.NumDims)

// caseEnum enumerates the data-iteration cases of one cluster level
// (Figure 8's ExtractDataIterationCases) as an iterator: next steps to
// the level's very first step (adv == -1, every loop at its first
// index), then, for every multi-step loop adv in nest order, through each
// combination of adv's arrival classes with the classes of the loops
// outside it (the loops inside adv reset). All of its state is fixed-size,
// so a level walk keeps it on its stack and the per-case callbacks
// allocate nothing (TestWalkAllocsPerWalk):
//
//	en := newCaseEnum(a)
//	for en.next() {
//		process(en.adv, en.classes(), en.occ)
//	}
type caseEnum struct {
	a     *reuse.Analysis
	loops []reuse.Loop

	adv int   // loop advancing in the current case; -1 for the first step, -2 before it
	occ int64 // concrete steps the current case covers

	cls     [maxLoops]loopClass    // current class assignment
	choices [maxLoops]classChoices // per-loop choice lists for adv
	pick    [maxLoops]int          // per-loop index into choices
}

func newCaseEnum(a *reuse.Analysis) caseEnum {
	return caseEnum{a: a, loops: a.Loops, adv: -2}
}

// classes returns the current case's class assignment, one per loop. It
// aliases the enumerator and is only valid until the next call to next.
func (en *caseEnum) classes() []loopClass { return en.cls[:len(en.loops)] }

// next steps to the next data-iteration case and reports whether there
// is one. Within one adv, combinations come in lexicographic order of
// the per-loop choices, outermost loop most significant.
func (en *caseEnum) next() bool {
	// Odometer over loops 0..adv; the loops inside adv have one choice.
	for i := en.adv; i >= 0; i-- {
		if en.pick[i]+1 < en.choices[i].n {
			en.pick[i]++
			en.cls[i] = en.choices[i].c[en.pick[i]]
			en.setOcc()
			return true
		}
		en.pick[i] = 0
		en.cls[i] = en.choices[i].c[0]
	}
	for en.adv++; en.adv < len(en.loops); en.adv++ {
		if en.adv == -1 || en.loops[en.adv].Steps >= 2 {
			en.begin()
			return true
		}
	}
	return false
}

// begin builds the choice lists for advancing loop en.adv (every loop
// resets for the first step, adv == -1) and selects the first
// combination.
func (en *caseEnum) begin() {
	adv := en.adv
	for i, lp := range en.loops {
		var cc classChoices
		switch {
		case i > adv || lp.Steps < 2:
			// Inner loops reset to their first index; single-step loops
			// have one position that is both first and last.
			cc.add(loopClass{first: true, last: lp.Steps == 1, count: 1})
		case i == adv:
			cc = arrivalClasses(lp, splitLast(en.a, en.loops, i))
		default:
			cc = outerClasses(lp, splitLast(en.a, en.loops, i),
				!en.a.Affects(tensor.Output, i))
		}
		en.choices[i] = cc
		en.pick[i] = 0
		en.cls[i] = cc.c[0]
	}
	en.setOcc()
}

// setOcc sets occ to the number of concrete steps the current class
// assignment covers.
func (en *caseEnum) setOcc() {
	en.occ = 1
	for _, lc := range en.classes() {
		en.occ *= lc.count
	}
}

// splitLast reports whether a loop's final index must be distinguished
// from its steady ones: it carries an edge chunk, changes the active
// sub-cluster count (final fold), or gates output finality (reduction
// loop).
func splitLast(a *reuse.Analysis, loops []reuse.Loop, i int) bool {
	lp := loops[i]
	if lp.IsFold {
		return true
	}
	return lp.Map.HasEdge() || !a.Affects(tensor.Output, i)
}

// arrivalClasses enumerates where an advancing loop lands: indices
// 1..T-1, with the final index split out when it matters.
func arrivalClasses(lp reuse.Loop, split bool) classChoices {
	t := int64(lp.Steps)
	var cc classChoices
	if !split {
		cc.add(loopClass{count: t - 1})
		return cc
	}
	cc.add(loopClass{last: true, count: 1})
	if t > 2 {
		cc.add(loopClass{count: t - 2})
	}
	return cc
}

// outerClasses enumerates an outer loop's position: first/steady/final,
// with first split out only for reduction loops (it gates partial-sum
// re-reads) and final split out when splitLast says so.
func outerClasses(lp reuse.Loop, splitLastIdx, splitFirst bool) classChoices {
	t := int64(lp.Steps)
	var cc classChoices
	switch {
	case splitFirst && splitLastIdx:
		cc.add(loopClass{first: true, count: 1})
		cc.add(loopClass{last: true, count: 1})
		if t > 2 {
			cc.add(loopClass{count: t - 2})
		}
	case splitFirst:
		cc.add(loopClass{first: true, count: 1})
		if t > 1 {
			cc.add(loopClass{count: t - 1})
		}
	case splitLastIdx:
		cc.add(loopClass{last: true, count: 1})
		if t > 1 {
			cc.add(loopClass{count: t - 1})
		}
	default:
		cc.add(loopClass{count: t})
	}
	return cc
}

func max3(a, b, c int64) int64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
