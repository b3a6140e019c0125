// Command maestro-tune auto-tunes a mapping for every layer of a
// built-in model and writes a complete network file in the DSL, ready
// for cmd/maestro to consume:
//
//	maestro-tune -model MobileNetV2 -pes 256 -o mobilenet_tuned.m
//	maestro -pes 256 mobilenet_tuned.m
//
// -layer tunes one layer of the model, and -dims (with -stride) a
// custom convolution. A positive -budget follows the template scan with
// a free-form search of -strategy (exhaustive, random or hillclimb,
// seeded by -seed) over loop orders, tiles, spatial dims and cluster
// splits; each layer's comment names the winning mapping:
//
//	maestro-tune -model VGG16 -layer CONV5 -budget 2000 -strategy hillclimb
//	maestro-tune -dims K:64,C:64,Y:58,X:58,R:3,S:3 -budget 500
//
// With -trace the whole search is recorded as Chrome trace_event JSON:
// one tuner.layer span per layer, with the profile walks and pricings
// of its candidate mappings as children.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintln(os.Stderr, "maestro-tune:", err)
	os.Exit(1)
}

// run is the whole tool behind a testable seam: flags in, the tuned
// network file on stdout (or -o), progress on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("maestro-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelName := fs.String("model", "MobileNetV2", "built-in zoo model to tune")
	layerName := fs.String("layer", "", "tune only this layer of -model")
	dims := fs.String("dims", "", "tune one custom convolution instead, e.g. K:64,C:64,Y:58,X:58,R:3,S:3")
	stride := fs.Int("stride", 1, "stride of the -dims layer")
	pes := fs.Int("pes", 256, "number of PEs")
	bw := fs.Float64("bw", 32, "NoC GB/s")
	objective := fs.String("objective", "runtime", "runtime, energy, or edp")
	budget := fs.Int("budget", 0, "free-form candidates to evaluate after the template scan (0: templates only)")
	strategy := fs.String("strategy", "hillclimb", "free-form search: exhaustive, random, or hillclimb")
	seed := fs.Int64("seed", 1, "seed of the random and hillclimb strategies")
	out := fs.String("o", "", "output network file (default stdout)")
	hwFile := fs.String("hw", "", "accelerator description file")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the search to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := pickModel(*modelName, *layerName, *dims, *stride)
	if err != nil {
		return err
	}
	cfg, err := pickHW(*hwFile, *pes, *bw)
	if err != nil {
		return err
	}
	opt := tuner.Options{Budget: *budget, Seed: *seed}
	if opt.Strategy, err = parseStrategy(*strategy); err != nil {
		return err
	}
	switch *objective {
	case "runtime":
		opt.Objective = tuner.MinRuntime
	case "energy":
		opt.Objective = tuner.MinEnergy
	case "edp":
		opt.Objective = tuner.MinEDP
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}

	ctx := context.Background()
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.NewRecorder()
		ctx = obs.WithRecorder(ctx, rec)
	}

	w := new(bytes.Buffer)
	fmt.Fprintf(w, "// %s tuned for %s on %d PEs (objective: %s)\n",
		m.Name, cfg.Name, cfg.NumPEs, *objective)
	if opt.Budget > 0 {
		fmt.Fprintf(w, "// free-form search: %s, budget %d, seed %d\n", opt.Strategy, opt.Budget, opt.Seed)
	}
	fmt.Fprintf(w, "Network %s {\n", sanitize(m.Name))
	var total int64
	for _, li := range m.Layers {
		ch, err := tuner.TuneLayerCtx(ctx, li.Layer, cfg, opt)
		if err != nil {
			return fmt.Errorf("layer %s: %w", li.Layer.Name, err)
		}
		total += ch.Result.Runtime * int64(li.Count)
		writeLayer(w, li.Layer, ch)
	}
	fmt.Fprintln(w, "}")
	if *out != "" {
		err = os.WriteFile(*out, w.Bytes(), 0o644)
	} else {
		_, err = stdout.Write(w.Bytes())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "tuned %d layer shapes; total runtime %d cycles\n", len(m.Layers), total)
	if rec != nil {
		if err := writeTrace(*tracePath, rec); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d spans to %s\n", rec.Len(), *tracePath)
	}
	return nil
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeLayer(w *bytes.Buffer, l tensor.Layer, ch tuner.Choice) {
	fmt.Fprintf(w, "  // %s: %d cycles (%.1f%% utilization)\n",
		ch.Dataflow.Name, ch.Result.Runtime, 100*ch.Result.Utilization())
	fmt.Fprintf(w, "  Layer %s {\n", sanitize(l.Name))
	fmt.Fprintf(w, "    Type: %s\n", l.Op)
	if l.StrideY != 1 || l.StrideX != 1 {
		fmt.Fprintf(w, "    Stride { Y: %d, X: %d }\n", l.StrideY, l.StrideX)
	}
	fmt.Fprintf(w, "    Dimensions { N: %d, K: %d, C: %d, Y: %d, X: %d, R: %d, S: %d }\n",
		l.Sizes.Get(tensor.N), l.Sizes.Get(tensor.K), l.Sizes.Get(tensor.C),
		l.Sizes.Get(tensor.Y), l.Sizes.Get(tensor.X), l.Sizes.Get(tensor.R), l.Sizes.Get(tensor.S))
	if l.Density[tensor.Input] != 1 || l.Density[tensor.Weight] != 1 || l.Density[tensor.Output] != 1 {
		fmt.Fprintf(w, "    Density { I: %g, W: %g, O: %g }\n",
			l.Density[tensor.Input], l.Density[tensor.Weight], l.Density[tensor.Output])
	}
	fmt.Fprintln(w, "    Dataflow {")
	for _, line := range strings.Split(strings.TrimSpace(ch.Dataflow.String()), "\n") {
		fmt.Fprintf(w, "      %s\n", line)
	}
	fmt.Fprintln(w, "    }")
	fmt.Fprintln(w, "  }")
}

// sanitize maps layer names to DSL identifiers.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// pickModel returns what to tune: the zoo model, only its -layer, or a
// one-layer model of the -dims convolution.
func pickModel(modelName, layerName, dims string, stride int) (models.Model, error) {
	if dims != "" {
		if layerName != "" {
			return models.Model{}, fmt.Errorf("-dims and -layer are exclusive")
		}
		l := tensor.Layer{Name: "custom", Op: tensor.Conv2D, StrideY: stride, StrideX: stride}
		for _, part := range strings.Split(dims, ",") {
			kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
			if len(kv) != 2 {
				return models.Model{}, fmt.Errorf("bad dim %q", part)
			}
			d, err := tensor.ParseDim(kv[0])
			if err != nil {
				return models.Model{}, err
			}
			v, err := strconv.Atoi(kv[1])
			if err != nil {
				return models.Model{}, err
			}
			l.Sizes = l.Sizes.Set(d, v)
		}
		l = l.Normalize()
		if err := l.Validate(); err != nil {
			return models.Model{}, err
		}
		return models.Model{Name: "custom", Layers: []models.LayerInst{{Layer: l, Count: 1}}}, nil
	}
	m, ok := models.ByName(modelName)
	if !ok {
		return models.Model{}, fmt.Errorf("unknown model %q (have %s)", modelName, strings.Join(models.Zoo(), ", "))
	}
	if layerName == "" {
		return m, nil
	}
	li, ok := m.Find(layerName)
	if !ok {
		return models.Model{}, fmt.Errorf("layer %q not in %s", layerName, m.Name)
	}
	return models.Model{Name: m.Name, Layers: []models.LayerInst{li}}, nil
}

// parseStrategy maps a -strategy name to its tuner.Strategy.
func parseStrategy(name string) (tuner.Strategy, error) {
	for _, st := range []tuner.Strategy{tuner.Exhaustive, tuner.RandomSample, tuner.HillClimb} {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want exhaustive, random, or hillclimb)", name)
}

func pickHW(hwFile string, pes int, gbps float64) (hw.Config, error) {
	if hwFile != "" {
		src, err := os.ReadFile(hwFile)
		if err != nil {
			return hw.Config{}, err
		}
		return hw.ParseConfig(string(src))
	}
	m := noc.Bus(noc.GBpsToElems(gbps, 1, 1))
	m.Reduction = true
	return hw.Config{Name: "cli", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize(), nil
}
