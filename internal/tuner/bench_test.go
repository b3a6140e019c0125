package tuner

import (
	"testing"

	"repro/internal/hw"
)

// BenchmarkTuneLayer measures one layer's search on Accel256: the
// template scan alone (the root BenchmarkTuner's layer), and the scan
// followed by a budget-200 hill climb seeded i on iteration i.
func BenchmarkTuneLayer(b *testing.B) {
	cfg := hw.Accel256()
	cases := []struct {
		name  string
		k, c  int
		out   int
		climb bool
	}{
		{"templates", 64, 64, 28, false},
		{"hillclimb", 32, 32, 16, true},
	}
	for _, bc := range cases {
		l := layer(bc.k, bc.c, bc.out, 3, 1)
		l.Name = "bench"
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := Options{}
				if bc.climb {
					opt = Options{Strategy: HillClimb, Budget: 200, Seed: int64(i)}
				}
				if _, err := TuneLayer(l, cfg, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
