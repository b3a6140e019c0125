package netsched

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// -update rewrites testdata/run.golden from the current Run.
var update = flag.Bool("update", false, "rewrite testdata/run.golden")

// TestRunGolden pins Run's answers: for every zoo model under KC-P,
// YR-P, X-P and the tuner, at L2 budgets of 0, 64 KiB, 256 KiB, 1 MiB
// and 4 MiB on Accel256, one line per schedule with its cycles, DRAM
// traffic, DRAMSaved, BaselineDRAM, energy (9 significant digits) and
// each layer's input and output residency ("io", "i.", ".o" or "..").
func TestRunGolden(t *testing.T) {
	cfg := hw.Accel256()
	var got bytes.Buffer
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, dfName := range []string{"KC-P", "YR-P", "X-P", "tuned"} {
			var opt Options
			if dfName != "tuned" {
				df := dataflows.Get(dfName)
				opt.Dataflow = func(tensor.Layer) (dataflow.Dataflow, bool) { return df, true }
			}
			for _, l2 := range []int64{0, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
				opt.L2Bytes = l2
				s, err := Run(m, cfg, opt)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, dfName, l2, err)
				}
				res := make([]byte, 0, 2*len(s.Groups))
				for _, gp := range s.Groups {
					res = append(res, flagByte(gp.InputResident, 'i'), flagByte(gp.OutputResident, 'o'))
				}
				fmt.Fprintf(&got, "%s\t%s\t%d\tcycles=%d\tdram=%d\tsaved=%d\tbase=%d\tenergy=%.9g\t%s\n",
					name, dfName, l2, s.TotalCycles, s.DRAMTraffic, s.DRAMSaved, s.BaselineDRAM, s.EnergyPJ, res)
			}
		}
	}
	golden := filepath.Join("testdata", "run.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	bad := 0
	for i := 0; i < max(len(g), len(w)) && bad < 10; i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, gl, wl)
			bad++
		}
	}
}

func flagByte(on bool, c byte) byte {
	if on {
		return c
	}
	return '.'
}
