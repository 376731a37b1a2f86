package harness

import (
	"fmt"
	"math"

	"orpheus/internal/backend"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// E4 "layout": NHWC layout planning against the NCHW baseline, per zoo
// model — measured latency both ways, speedup, output relative error, the
// ConvertLayout counters (how many transposes the pass inserted and then
// removed, how many materialised).
func init() {
	register(&Experiment{ID: "layout", Title: "E4: NHWC layout planning vs NCHW (speed, equivalence, fold counters)", Run: runLayoutExec})
}

func runLayoutExec(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "layout", Title: "E4: NHWC layout planning vs NCHW per model"}
	rep.Header = []string{"model", "nchw ms", "nhwc ms", "speedup", "rel err", "nhwc nodes", "folded", "left"}
	measured := cfg.Mode != ModeSim
	if !measured {
		rep.AddNote("timing columns require -mode measure; the A73 cost model is layout-blind")
	}
	b, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		nchwPlan, err := b.PrepareWith(g, backend.PrepareOpts{Workers: cfg.Workers, MaxBatch: 1})
		if err != nil {
			return nil, err
		}
		stats := &passes.LayoutStats{}
		nhwcPlan, err := b.PrepareWith(g, backend.PrepareOpts{Workers: cfg.Workers, MaxBatch: 1, Layout: "nhwc", LayoutStats: stats})
		if err != nil {
			return nil, err
		}
		nchwSess := runtime.NewSession(nchwPlan)
		nhwcSess := runtime.NewSession(nhwcPlan)
		inName, outName := g.Inputs[0].Name, g.Outputs[0].Name

		x := tensor.Rand(tensor.NewRNG(tensor.SeedFromString("layout-"+modelName)), -1, 1, g.Inputs[0].Shape...)
		in := map[string]*tensor.Tensor{inName: x}
		nchwOut, err := nchwSess.Run(cfg.Ctx, in)
		if err != nil {
			return nil, err
		}
		ref := nchwOut[outName].Clone().Data()
		nhwcOut, err := nhwcSess.Run(cfg.Ctx, in)
		if err != nil {
			return nil, err
		}
		rel := relErr32(nhwcOut[outName].Data(), ref)

		nchwMs, nhwcMs, speedup := "-", "-", "-"
		if measured {
			nchwStats, err := runtime.Measure(cfg.Ctx, nchwSess, in, cfg.Warmup, cfg.Reps)
			if err != nil {
				return nil, err
			}
			nhwcStats, err := runtime.Measure(cfg.Ctx, nhwcSess, in, cfg.Warmup, cfg.Reps)
			if err != nil {
				return nil, err
			}
			n := float64(nchwStats.Median) / 1e6
			h := float64(nhwcStats.Median) / 1e6
			nchwMs, nhwcMs = fmtMs(n), fmtMs(h)
			speedup = fmt.Sprintf("%.2fx", n/h)
		}

		rep.AddRow(modelName, nchwMs, nhwcMs, speedup,
			fmt.Sprintf("%.2e", rel),
			fmt.Sprintf("%d", stats.NHWCNodes),
			fmt.Sprintf("%d", stats.Cancelled+stats.Elided+stats.Folded),
			fmt.Sprintf("%d", stats.Remaining))
	}
	rep.AddNote("nhwc path: layout-assignment pass + channel-innermost conv/depthwise kernels; transposes only at unfoldable frontiers")
	rep.AddNote("folded = frontier transposes removed (pair-cancelled + elided + folded into conv gathers); left = materialised Transpose nodes")
	return rep, nil
}

// relErr32 is ||a-b|| / ||b||.
func relErr32(a, b []float32) float64 {
	var num, den float64
	for i := range a {
		d := float64(a[i] - b[i])
		num += d * d
		den += float64(b[i]) * float64(b[i])
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
