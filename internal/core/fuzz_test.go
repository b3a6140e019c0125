package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/tensor"
)

// FuzzPriceBatch is the differential fuzz pass for the batch pricing
// engine: random layer shapes × dataflows × mixed-validity config
// batches, with the sequential Price and the fused oracle walk as
// references. It pins the full contract — every valid lane bit-identical
// to Price and to the oracle, nil results exactly on the lanes whose
// configs fail, the joined error unwrapping to the same sentinel the
// scalar path reports, and invalid neighbors never poisoning valid
// lanes.
func FuzzPriceBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(42), uint8(3), uint8(0b1010))
	f.Add(int64(-7), uint8(7), uint8(0xff))
	f.Add(int64(1<<40), uint8(2), uint8(0b0001))
	f.Fuzz(func(t *testing.T, seed int64, dfPick uint8, invalidMask uint8) {
		const pes = 64
		rng := rand.New(rand.NewSource(seed))
		layer := randomConv(rng, int(uint8(seed)))
		df := dataflows.Get(dataflows.Names[int(dfPick)%len(dataflows.Names)])
		spec, err := dataflow.Resolve(df, layer, pes)
		if err != nil {
			t.Skip() // mapping not applicable to this shape
		}
		prof, err := Profile(spec)
		if err != nil {
			t.Skip()
		}

		// Eight lanes: random bus widths, with the masked lanes made
		// invalid (wrong PE count — the validation Price itself applies).
		cfgs := make([]hw.Config, 8)
		bad := make([]bool, 8)
		for i := range cfgs {
			if invalidMask&(1<<i) != 0 {
				cfgs[i] = testHW(pes * 2)
				bad[i] = true
				continue
			}
			m := noc.Bus(1 + 63*rng.Float64())
			m.Reduction = rng.Intn(2) == 0
			m.Multicast = rng.Intn(4) != 0
			cfgs[i] = hw.Config{
				Name: "fuzz", NumPEs: pes,
				VectorWidth: 1 + rng.Intn(4),
				NoCs:        []noc.Model{m},
			}.Normalize()
		}

		rs, batchErr := prof.PriceBatch(cfgs)
		if len(rs) != len(cfgs) {
			t.Fatalf("got %d results for %d configs", len(rs), len(cfgs))
		}
		anyBad := invalidMask != 0
		if anyBad != (batchErr != nil) {
			t.Fatalf("batch error = %v with invalid mask %08b", batchErr, invalidMask)
		}
		if anyBad && !errors.Is(batchErr, hw.ErrInvalidConfig) {
			t.Fatalf("joined error does not unwrap to hw.ErrInvalidConfig: %v", batchErr)
		}
		for i, cfg := range cfgs {
			want, seqErr := prof.Price(cfg)
			if bad[i] != (seqErr != nil) {
				t.Fatalf("lane %d: sequential oracle disagrees on validity: %v", i, seqErr)
			}
			if bad[i] {
				if rs[i] != nil {
					t.Fatalf("lane %d: invalid config produced a result", i)
				}
				continue
			}
			if rs[i] == nil {
				t.Fatalf("lane %d: valid config produced nil (poisoned by mask %08b?)", i, invalidMask)
			}
			if !reflect.DeepEqual(want, rs[i]) {
				t.Fatalf("lane %d (%s): batch diverged from sequential Price\nprice: %+v\nbatch: %+v",
					i, cfg.Name, want, rs[i])
			}
			oracle, err := oracleAnalyze(spec, cfg)
			if err != nil {
				t.Fatalf("lane %d: oracle rejected a config Price accepted: %v", i, err)
			}
			if !reflect.DeepEqual(oracle, rs[i]) {
				t.Fatalf("lane %d (%s): batch diverged from the oracle walk\noracle: %+v\nbatch:  %+v",
					i, cfg.Name, oracle, rs[i])
			}
		}
	})
}

// FuzzProfileKey drives the profile identity with arbitrary DSL: the
// encoder never panics, and whatever parses keys equal to its Augment
// form, so the implicit maps Augment writes out encode exactly like
// explicit directives. The layers include a raw depthwise shape whose
// normalization changes the sizes Augment fills in.
func FuzzProfileKey(f *testing.F) {
	for i, name := range dataflows.Names {
		f.Add(dataflows.Sources[name], uint8(i))
	}
	f.Add("TemporalMap(1,1) Y'; Cluster(Sz(R)); SpatialMap(2*Sz(S)-1, -3) X;", uint8(1))
	f.Add("Cluster(4); Cluster(2);", uint8(2))
	f.Add("", uint8(0))
	layers := []tensor.Layer{
		smallConv(),
		{Name: "raw-dw", Op: tensor.DepthwiseConv,
			Sizes: tensor.Sizes{tensor.K: 8, tensor.C: 4, tensor.Y: 6, tensor.X: 6, tensor.R: 3, tensor.S: 3}},
		{Name: "fc", Op: tensor.FullyConnected, Sizes: tensor.Sizes{tensor.N: 2, tensor.K: 10, tensor.C: 16}},
	}
	f.Fuzz(func(t *testing.T, src string, pick uint8) {
		df, err := dataflow.ParseDataflow("fuzz", src)
		if err != nil {
			return
		}
		layer := layers[int(pick)%len(layers)]
		if ProfileKeyFor(df, layer, 64) != ProfileKeyFor(dataflow.Augment(df, layer), layer, 64) {
			t.Fatalf("%q keys unlike its Augment form on %s", src, layer.Name)
		}
	})
}
