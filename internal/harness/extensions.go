package harness

import (
	"context"
	"fmt"

	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/quant"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// Extension experiments beyond the paper's published results:
//
//   - threads: worker scaling 1→N. The paper could not fix TF-Lite to one
//     thread; this experiment runs the multi-thread regime where TF-Lite
//     *does* participate, completing the comparison the paper had to
//     truncate.
//   - quantize: weight-only int8 post-training quantisation — footprint
//     and numerical drift per model (the compression-style study the
//     paper's introduction motivates via Turner et al.).
func init() {
	register(&Experiment{ID: "threads", Title: "E1: thread scaling (multi-thread regime incl. TF-Lite)", Run: runThreads})
	register(&Experiment{ID: "quantize", Title: "E2: int8 weight quantisation footprint and drift", Run: runQuantize})
}

func runThreads(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "threads", Title: "E1: measured inference time vs worker count"}
	rep.Header = []string{"model", "backend", "1 thread", "2 threads", "4 threads"}
	if cfg.Mode == ModeSim {
		// The A73 cost model is single-core; thread scaling is a measured
		// experiment by nature.
		rep.AddNote("threads experiment requires -mode measure; cost model is single-core")
	}
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		for _, bname := range []string{"orpheus", "tflite-sim"} {
			b, err := backend.ByName(bname)
			if err != nil {
				return nil, err
			}
			if b.SupportsModel != nil && b.SupportsModel(modelName) != nil {
				continue
			}
			row := []any{modelName, b.Paper}
			for _, workers := range []int{1, 2, 4} {
				plan, err := b.PrepareWith(g, backend.PrepareOpts{Workers: workers})
				if err != nil {
					row = append(row, "n/a")
					continue
				}
				if cfg.Mode == ModeSim {
					row = append(row, "-")
					continue
				}
				sess := runtime.NewSession(plan)
				x := tensor.Rand(tensor.NewRNG(1), -1, 1, g.Inputs[0].Shape...)
				stats, err := runtime.Measure(cfg.Ctx, sess, map[string]*tensor.Tensor{g.Inputs[0].Name: x}, cfg.Warmup, cfg.Reps)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtMs(float64(stats.Median)/1e6))
			}
			rep.AddRow(row...)
		}
	}
	rep.AddNote("tflite-sim refuses 1 thread (paper's exclusion) but participates at 2+")
	return rep, nil
}

func runQuantize(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "quantize", Title: "E2: int8 weight quantisation per model"}
	rep.Header = []string{"model", "weights fp32 MB", "weights int8 MB", "compression", "worst weight rel err", "max prob drift"}
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		x := tensor.Rand(tensor.NewRNG(tensor.SeedFromString("quant-"+modelName)), -1, 1, g.Inputs[0].Shape...)
		before, err := runOnce(g, x)
		if err != nil {
			return nil, err
		}
		qrep, err := quant.QuantizeGraph(g)
		if err != nil {
			return nil, err
		}
		after, err := runOnce(g, x)
		if err != nil {
			return nil, err
		}
		rep.AddRow(modelName,
			fmt.Sprintf("%.2f", float64(qrep.FloatBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(qrep.QuantBytes)/(1<<20)),
			fmt.Sprintf("%.2fx", qrep.Compression()),
			fmt.Sprintf("%.4f", qrep.WorstRelError),
			fmt.Sprintf("%.4f", tensor.MaxAbsDiff(before, after)))
	}
	rep.AddNote("weight-only per-channel symmetric int8; activations stay fp32")
	rep.AddNote("prob drift = max |softmax_fp32 - softmax_int8| on one input")
	return rep, nil
}

// runOnce executes a graph once under the orpheus backend and returns the
// (cloned) output.
func runOnce(g *graph.Graph, x *tensor.Tensor) (*tensor.Tensor, error) {
	b, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	plan, err := b.PrepareWith(g, backend.PrepareOpts{})
	if err != nil {
		return nil, err
	}
	sess := runtime.NewSession(plan)
	outs, err := sess.Run(context.Background(), map[string]*tensor.Tensor{g.Inputs[0].Name: x})
	if err != nil {
		return nil, err
	}
	for _, v := range outs {
		return v.Clone(), nil
	}
	return nil, fmt.Errorf("harness: graph %s produced no outputs", g.Name)
}
