package dse

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
)

// BenchmarkExploreFusion measures one fusion sweep per op on Accel256
// with a warm profile cache and one worker, cycling over the sweeps the
// end-to-end benchmark sends: six zoo models under KC-P, YR-P and X-P,
// at one 256 KiB budget.
//
//   - fleet_chunk: caps {1, 2, 4, 8}, the chunk a fleet node prices per
//     shard of a SweepFusion;
//   - serve: caps {2, 8}, a /v1/fusion request.
func BenchmarkExploreFusion(b *testing.B) {
	for _, bc := range []struct {
		name string
		caps []int
	}{
		{"fleet_chunk", []int{1, 2, 4, 8}},
		{"serve", []int{2, 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var spaces []FusionSpace
			for _, name := range []string{"AlexNet", "VGG16", "ResNet50", "MobileNetV2", "UNet", "GoogLeNet"} {
				m, ok := models.ByName(name)
				if !ok {
					b.Fatalf("zoo model %s not found", name)
				}
				for _, df := range []string{"KC-P", "YR-P", "X-P"} {
					spaces = append(spaces, FusionSpace{
						Model:          m,
						Cfg:            hw.Accel256(),
						Dataflow:       df,
						L2Grid:         []int64{256 << 10},
						MaxGroupLayers: bc.caps,
						Workers:        1,
					})
				}
			}
			for _, sp := range spaces {
				if _, _, err := ExploreFusion(sp); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ExploreFusion(spaces[i%len(spaces)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
