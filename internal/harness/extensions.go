package harness

import (
	"context"
	"fmt"

	"orpheus/internal/backend"
	"orpheus/internal/ops"
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
//   - quantize: the int8 execution tier against fp32 — the compiled
//     plans' weight footprint, how many layers run int8, and the output
//     drift per model (the compression-style study the paper's
//     introduction motivates via Turner et al.), measured on the plan
//     that WithInt8 deploys rather than on a separate fake-quant scheme.
func init() {
	register(&Experiment{ID: "threads", Title: "E1: thread scaling (multi-thread regime incl. TF-Lite)", Run: runThreads})
	register(&Experiment{ID: "quantize", Title: "E2: int8 plan footprint and drift", Run: runQuantize})
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
	rep := &Report{ID: "quantize", Title: "E2: the compiled int8 plan against the fp32 plan, per model"}
	rep.Header = []string{"model", "weights fp32 MB", "weights int8 MB", "compression", "int8 layers", "max output drift"}
	b, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		x := tensor.Rand(tensor.NewRNG(tensor.SeedFromString("quant-"+modelName)), -1, 1, g.Inputs[0].Shape...)
		var mb [2]float64
		var outs [2]*tensor.Tensor
		var plan *runtime.Plan
		for i, q := range []bool{false, true} {
			if plan, err = b.PrepareWith(g, backend.PrepareOpts{Int8: q}); err != nil {
				return nil, err
			}
			mb[i] = float64(plan.WeightBytes()+plan.ConstBytes()) / (1 << 20)
			if outs[i], err = runOnce(plan, x); err != nil {
				return nil, err
			}
		}
		quantized, layers := 0, 0
		for _, st := range plan.Steps() {
			if st.Node.Op == "Conv" || st.Node.Op == "Dense" {
				layers++
				if ops.IsQuantized(ops.ByName(st.Kernel)) {
					quantized++
				}
			}
		}
		rep.AddRow(modelName, fmt.Sprintf("%.2f", mb[0]), fmt.Sprintf("%.2f", mb[1]), fmt.Sprintf("%.2fx", mb[0]/mb[1]),
			fmt.Sprintf("%d/%d", quantized, layers), fmt.Sprintf("%.2e", tensor.MaxAbsDiff(outs[0], outs[1])))
	}
	rep.AddNote("both plans as backend orpheus compiles them without and with Int8; weights MB = WeightBytes + ConstBytes (raw weights plus packed panels)")
	rep.AddNote("int8 layers = conv and dense layers on an int8 kernel; output drift = max |fp32 - int8| over the output on one seeded input")
	return rep, nil
}

// runOnce executes a plan once on x and returns its (cloned) output.
func runOnce(plan *runtime.Plan, x *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := runtime.NewSession(plan).Run(context.Background(), map[string]*tensor.Tensor{plan.InputDescs()[0].Name: x})
	if err != nil {
		return nil, err
	}
	return outs[plan.OutputDescs()[0].Name].Clone(), nil
}
