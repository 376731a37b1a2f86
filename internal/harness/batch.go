package harness

import (
	"fmt"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// Batch-size sweep: throughput (inferences/sec) of the native backend at
// batch n ∈ {1, 4, 8}, per model. This extends the paper's single-sample
// Figure 2 regime to the serving regime the ROADMAP targets: one batched
// pass amortises every packed weight panel across the batch, so the
// throughput ratio n=8 vs n=1 is the amortisation win.
func init() {
	register(&Experiment{
		ID:    "batch",
		Title: "Batched inference throughput (inf/s) at n = 1, 4, 8",
		Run:   runBatchSweep,
	})
}

// batchSweepNs are the batch sizes of the sweep columns.
var batchSweepNs = []int{1, 4, 8}

func runBatchSweep(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "batch", Title: "Batched inference throughput, orpheus backend"}
	rep.Header = []string{"model", "n=1 inf/s", "n=4 inf/s", "n=8 inf/s", "n=8 vs n=1"}
	be, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		row := []any{modelName}
		rates := make([]float64, 0, len(batchSweepNs))
		for _, n := range batchSweepNs {
			infps, err := batchThroughput(cfg, be, g, n)
			if err != nil {
				return nil, fmt.Errorf("harness: batch sweep %s n=%d: %w", modelName, n, err)
			}
			rates = append(rates, infps)
			row = append(row, fmt.Sprintf("%.2f", infps))
		}
		if rates[0] > 0 {
			row = append(row, fmt.Sprintf("%.2fx", rates[len(rates)-1]/rates[0]))
		} else {
			row = append(row, "n/a")
		}
		rep.AddRow(row...)
	}
	if cfg.Mode == ModeSim {
		rep.AddNote("simulated on the A73 cost model; run with -mode measure for host throughput")
	}
	rep.AddNote("each column is one batched Session.Run over n samples; inf/s = n / batch time")
	return rep, nil
}

// batchThroughput returns inferences/sec for one model at batch n: the
// graph is compiled for MaxBatch n (so the cost model sees batch-n node
// shapes) and timed — simulated on the device cost model or measured on
// the host, per cfg.Mode.
func batchThroughput(cfg *Config, be *backend.Backend, g *graph.Graph, n int) (float64, error) {
	plan, err := be.PrepareWith(g, backend.PrepareOpts{Workers: cfg.Workers, MaxBatch: n})
	if err != nil {
		return 0, err
	}
	var perBatch time.Duration
	if cfg.Mode == ModeMeasure {
		sess := runtime.NewSession(plan)
		x := tensor.Rand(tensor.NewRNG(tensor.SeedFromString(fmt.Sprintf("batch-%s-%d", g.Name, n))),
			-1, 1, plan.InputShapeAt(0, n)...)
		stats, err := runtime.Measure(cfg.Ctx, sess, map[string]*tensor.Tensor{g.Inputs[0].Name: x}, cfg.Warmup, cfg.Reps)
		if err != nil {
			return 0, err
		}
		perBatch = stats.Median
	} else {
		perBatch = cfg.Device.EstimatePlan(plan, time.Duration(be.SimDispatchNs))
	}
	if perBatch <= 0 {
		return 0, fmt.Errorf("non-positive batch time %v", perBatch)
	}
	return float64(n) / perBatch.Seconds(), nil
}
