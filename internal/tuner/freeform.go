package tuner

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// The free-form phase searches beyond the templates: loop orders, tile
// sizes, spatial dimensions and cluster splits, each candidate expressed
// in the data-centric directives — the class of mapping tool the paper
// positions MAESTRO to drive. The raw space (7! orders × tile grids ×
// spatial choices) is astronomically large, so every strategy stops at
// Options.Budget evaluations.

// Strategy selects the free-form search algorithm.
type Strategy uint8

// Strategies.
const (
	Exhaustive   Strategy = iota // deterministic sub-grid, in order, up to the budget
	RandomSample                 // uniform random candidates
	HillClimb                    // random-restart hill climbing
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Exhaustive:
		return "exhaustive"
	case RandomSample:
		return "random"
	case HillClimb:
		return "hillclimb"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// restarts is how many random starting points a hill climb splits its
// budget across.
const restarts = 4

// spatials are the dimensions a free-form candidate may map spatially.
var spatials = []tensor.Dim{tensor.K, tensor.C, tensor.Y, tensor.X}

// candidate encodes one point of the free-form mapping space.
type candidate struct {
	// order is the temporal nest order, outermost first; a permutation
	// of the seven dimensions.
	order [tensor.NumDims]tensor.Dim
	// tiles holds the per-dimension tile size. For the sliding dims Y/X
	// the tile counts output positions (the lowering converts to input
	// coordinates); for all others it is the chunk size directly.
	tiles tensor.Sizes
	// spatial is the spatially mapped dimension of the top level.
	spatial tensor.Dim
	// cluster is the sub-cluster size of an optional second level that
	// spatially maps innerSpatial; 0 keeps a single level.
	cluster      int
	innerSpatial tensor.Dim
}

// String renders the compact mapping signature that names the
// candidate's dataflow, e.g. "NKCYXRS tiles=N1 K4 ... spatial=K cluster=8:C".
// Every candidate offered is named, so it appends into one buffer:
// formatting with fmt made a budget-200 hill climb ~20% slower.
func (c candidate) String() string {
	b := make([]byte, 0, 80)
	for _, d := range c.order {
		b = append(b, d.String()...)
	}
	b = append(b, " tiles="...)
	for d := tensor.Dim(0); d < tensor.NumDims; d++ {
		if d > 0 {
			b = append(b, ' ')
		}
		b = append(b, d.String()...)
		b = strconv.AppendInt(b, int64(c.tiles.Get(d)), 10)
	}
	b = append(b, " spatial="...)
	b = append(b, c.spatial.String()...)
	if c.cluster > 0 {
		b = append(b, " cluster="...)
		b = strconv.AppendInt(b, int64(c.cluster), 10)
		b = append(b, ':')
		b = append(b, c.innerSpatial.String()...)
	}
	return string(b)
}

// dataflow lowers the candidate to data-centric directives, named by
// its signature.
func (c candidate) dataflow() dataflow.Dataflow {
	df := dataflow.Dataflow{Name: c.String()}
	for _, d := range c.order {
		t := max(c.tiles.Get(d), 1)
		var size, offset dataflow.SizeExpr
		if wd, ok := d.Window(); ok {
			// t output positions need (t-1)*stride + window inputs; the
			// resolver handles the stride scaling from the symbolic form.
			size = dataflow.Sz(wd).PlusConst(t - 1)
			offset = dataflow.Lit(t)
		} else {
			size, offset = dataflow.Lit(t), dataflow.Lit(t)
		}
		if d == c.spatial {
			df.Directives = append(df.Directives, dataflow.SMap(size, offset, d))
		} else {
			df.Directives = append(df.Directives, dataflow.TMap(size, offset, d))
		}
	}
	if c.cluster > 1 && c.innerSpatial != c.spatial {
		df.Directives = append(df.Directives,
			dataflow.ClusterOf(dataflow.Lit(c.cluster)),
			dataflow.SMap(dataflow.Lit(1), dataflow.Lit(1), c.innerSpatial),
		)
	}
	return df
}

// freeForm runs opt.Strategy over the free-form space after the
// template scan, whose winner stays the incumbent.
func (s *searcher) freeForm() {
	s.rng = rand.New(rand.NewSource(s.opt.Seed + 1))
	full := fullTiles(s.norm)
	for d := tensor.Dim(0); d < tensor.NumDims; d++ {
		s.tileChoices[d] = tileChoicesFor(full, d)
	}
	switch s.opt.Strategy {
	case RandomSample:
		s.randomSample()
	case HillClimb:
		s.hillClimb()
	default:
		s.exhaustive()
	}
}

// evaluate offers one free-form candidate within the budget. The
// resolver's rejections use up no budget; the engine's, and the
// filters', use up one evaluation like a scored candidate.
func (s *searcher) evaluate(c candidate) (float64, bool) {
	if s.evaluated >= s.opt.Budget {
		return 0, false
	}
	sc, resolved, ok := s.consider(c.dataflow())
	if resolved {
		s.evaluated++
	}
	if !ok {
		s.invalid++
	}
	return sc, ok
}

// fullTiles returns single-chunk tiles (everything staged at once), in
// output positions for the sliding dims; the searches shrink from
// there.
func fullTiles(layer tensor.Layer) tensor.Sizes {
	t := layer.Sizes
	for _, d := range []tensor.Dim{tensor.Y, tensor.X} {
		wd, _ := d.Window()
		stride := layer.StrideY
		if d == tensor.X {
			stride = layer.StrideX
		}
		t = t.Set(d, tensor.OutSpan(layer.Sizes.Get(d), layer.Sizes.Get(wd), stride))
	}
	return t
}

// tileChoicesFor enumerates tile sizes for a dimension whose full tile
// is full.Get(d): the powers of two below it, then the full tile.
func tileChoicesFor(full tensor.Sizes, d tensor.Dim) []int {
	limit := full.Get(d)
	var out []int
	for v := 1; v < limit; v *= 2 {
		out = append(out, v)
	}
	return append(out, limit)
}

// canonicalOrders lists nest orders worth visiting deterministically:
// rotations of the canonical order plus reversals, which cover the
// stationary extremes (weight-, output-, input-stationary).
func canonicalOrders() [][tensor.NumDims]tensor.Dim {
	base := [tensor.NumDims]tensor.Dim{tensor.N, tensor.K, tensor.C, tensor.Y, tensor.X, tensor.R, tensor.S}
	var orders [][tensor.NumDims]tensor.Dim
	for shift := 0; shift < int(tensor.NumDims); shift++ {
		var o, rev [tensor.NumDims]tensor.Dim
		for i := range o {
			o[i] = base[(i+shift)%int(tensor.NumDims)]
		}
		for i := range o {
			rev[i] = o[int(tensor.NumDims)-1-i]
		}
		orders = append(orders, o, rev)
	}
	return orders
}

// exhaustive walks a deterministic sub-grid: canonical orders × spatial
// dims × the spatial dim's tile choices × one or two cluster levels.
func (s *searcher) exhaustive() {
	full := fullTiles(s.norm)
	for _, order := range canonicalOrders() {
		for _, spatial := range spatials {
			for _, st := range s.tileChoices[spatial] {
				for _, cluster := range []int{0, 8} {
					c := candidate{order: order, spatial: spatial, cluster: cluster}
					if cluster > 0 {
						c.innerSpatial = tensor.C
						if spatial == tensor.C {
							c.innerSpatial = tensor.K
						}
					}
					c.tiles = full.Set(spatial, st)
					if _, ok := s.evaluate(c); !ok && s.evaluated >= s.opt.Budget {
						return
					}
				}
			}
		}
	}
}

// randomCandidate draws a uniform candidate.
func (s *searcher) randomCandidate() candidate {
	var c candidate
	for i, p := range s.rng.Perm(int(tensor.NumDims)) {
		c.order[i] = tensor.Dim(p)
	}
	for d := tensor.Dim(0); d < tensor.NumDims; d++ {
		ch := s.tileChoices[d]
		c.tiles = c.tiles.Set(d, ch[s.rng.Intn(len(ch))])
	}
	c.spatial = spatials[s.rng.Intn(len(spatials))]
	if s.rng.Intn(2) == 0 {
		c.cluster = []int{2, 4, 8, 16}[s.rng.Intn(4)]
		c.innerSpatial = spatials[s.rng.Intn(len(spatials))]
		if c.innerSpatial == c.spatial {
			c.cluster = 0
		}
	}
	return c
}

func (s *searcher) randomSample() {
	for s.evaluated < s.opt.Budget {
		s.evaluate(s.randomCandidate())
		if s.invalid > 50*s.opt.Budget {
			return // the generator keeps missing; bail out
		}
	}
}

// mutate perturbs one aspect of a candidate.
func (s *searcher) mutate(c candidate) candidate {
	switch s.rng.Intn(4) {
	case 0: // swap two nest positions
		i, j := s.rng.Intn(len(c.order)), s.rng.Intn(len(c.order))
		c.order[i], c.order[j] = c.order[j], c.order[i]
	case 1: // re-draw one tile
		d := tensor.Dim(s.rng.Intn(int(tensor.NumDims)))
		ch := s.tileChoices[d]
		c.tiles = c.tiles.Set(d, ch[s.rng.Intn(len(ch))])
	case 2: // change the spatial dim
		c.spatial = spatials[s.rng.Intn(len(spatials))]
	default: // toggle the cluster level
		if c.cluster == 0 {
			c.cluster = []int{2, 4, 8}[s.rng.Intn(3)]
			c.innerSpatial = tensor.C
			if c.spatial == tensor.C {
				c.innerSpatial = tensor.K
			}
		} else {
			c.cluster = 0
		}
	}
	return c
}

// hillClimb splits the budget across restarts, each climbing from a
// valid random candidate by single mutations until 60 in a row fail to
// improve it.
func (s *searcher) hillClimb() {
	perRestart := s.opt.Budget / restarts
	for r := 0; r < restarts && s.evaluated < s.opt.Budget; r++ {
		var cur candidate
		var curScore float64
		for tries := 0; tries < 200; tries++ {
			cur = s.randomCandidate()
			if sc, ok := s.evaluate(cur); ok {
				curScore = sc
				break
			}
			if tries == 199 {
				return
			}
		}
		stall := 0
		for used := 1; used < perRestart && stall < 60 && s.evaluated < s.opt.Budget; used++ {
			next := s.mutate(cur)
			sc, ok := s.evaluate(next)
			if ok && sc < curScore {
				cur, curScore = next, sc
				stall = 0
			} else {
				stall++
			}
		}
	}
}
