package harness

import (
	"fmt"
	"sort"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// Ablation experiments A1–A5 (see DESIGN.md §4). They interrogate the
// design choices the paper motivates: per-layer algorithm choice, graph
// simplification, arena memory planning and empirical tuning.
func init() {
	register(&Experiment{ID: "sweep", Title: "A1: conv algorithm crossover vs layer size", Run: runSweep})
	register(&Experiment{ID: "passes", Title: "A2: graph-pass contribution", Run: runPassesAblation})
	register(&Experiment{ID: "memory", Title: "A3: memory planner footprint", Run: runMemoryAblation})
	register(&Experiment{ID: "layerwise", Title: "A4: per-layer breakdown", Run: runLayerwise})
	register(&Experiment{ID: "autotune", Title: "A5: kernel auto-tuning", Run: runAutotuneAblation})
}

// sweepShapes are square conv layers (cin=cout, 3x3, pad 1) spanning the
// small→large spectrum Figure 2's models cover.
var sweepShapes = []struct{ c, hw int }{
	{8, 8}, {16, 16}, {32, 16}, {32, 32}, {64, 28}, {128, 28}, {128, 56}, {256, 14},
}

// SweepKernels are the conv algorithms compared in A1.
var SweepKernels = []string{"conv.direct", "conv.im2col", "conv.spatialpack", "conv.winograd"}

func sweepNode(c, hw int) (*graph.Node, []*tensor.Tensor, error) {
	r := tensor.NewRNG(tensor.SeedFromString(fmt.Sprintf("sweep-%d-%d", c, hw)))
	g := graph.New("sweep")
	x, err := g.Input("x", []int{1, c, hw, hw})
	if err != nil {
		return nil, nil, err
	}
	w, err := g.Const("w", tensor.HeNormal(r, c, c, 3, 3))
	if err != nil {
		return nil, nil, err
	}
	if _, err := g.Add("Conv", "conv", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x, w); err != nil {
		return nil, nil, err
	}
	if err := g.InferShapes(); err != nil {
		return nil, nil, err
	}
	n := g.Nodes[0]
	ins := []*tensor.Tensor{tensor.Rand(r, -1, 1, 1, c, hw, hw), w.Const}
	return n, ins, nil
}

func runSweep(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "sweep", Title: "A1: conv kernel time vs layer size (3x3, pad 1, batch 1)"}
	rep.Header = []string{"shape", "MFLOPs"}
	rep.Header = append(rep.Header, SweepKernels...)
	rep.Header = append(rep.Header, "fastest")
	for _, sh := range sweepShapes {
		n, ins, err := sweepNode(sh.c, sh.hw)
		if err != nil {
			return nil, err
		}
		row := []any{fmt.Sprintf("%dx%dx%d", sh.c, sh.hw, sh.hw), float64(ops.NodeFlops(n)) / 1e6}
		bestName, bestMs := "", 0.0
		for _, kname := range SweepKernels {
			k := ops.ByName(kname)
			if !k.Supports(n) {
				row = append(row, "n/a")
				continue
			}
			var ms float64
			if cfg.Mode == ModeMeasure || cfg.Mode == ModeBoth {
				ms = measureKernelMs(k, n, ins, cfg.Reps)
			} else {
				ms = float64(cfg.Device.EstimateNode(n, kname)) / 1e6
			}
			row = append(row, fmt.Sprintf("%.3f", ms))
			if bestName == "" || ms < bestMs {
				bestName, bestMs = kname, ms
			}
		}
		row = append(row, bestName)
		rep.AddRow(row...)
	}
	rep.AddNote("times in ms; spatial pack should win small layers, im2col/winograd large ones")
	return rep, nil
}

func measureKernelMs(k ops.Kernel, n *graph.Node, ins []*tensor.Tensor, reps int) float64 {
	out := tensor.New(n.Outputs[0].Shape...)
	ctx := ops.NewCtx(1)
	_ = k.Run(ctx, n, ins, []*tensor.Tensor{out}) // warm-up
	if reps < 1 {
		reps = 3
	}
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		_ = k.Run(ctx, n, ins, []*tensor.Tensor{out})
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}

func runPassesAblation(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "passes", Title: "A2: inference time and node count, raw vs optimised graph"}
	rep.Header = []string{"model", "nodes raw", "nodes opt", "ms raw", "ms opt", "speedup"}
	b, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	raw := *b
	raw.Optimize = false
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		rawRes := runModelBackend(cfg, g, modelName, &raw)
		optRes := runModelBackend(cfg, g, modelName, b)
		if rawRes.excluded != "" || optRes.excluded != "" {
			rep.AddRow(modelName, "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		optG := g.Clone()
		if err := optG.Finalize(); err != nil {
			return nil, err
		}
		if _, err := passes.Default().Run(optG); err != nil {
			return nil, err
		}
		rawMs, optMs := rawRes.ms(cfg.Mode), optRes.ms(cfg.Mode)
		rep.AddRow(modelName, len(g.Nodes), len(optG.Nodes), fmtMs(rawMs), fmtMs(optMs),
			fmt.Sprintf("%.2fx", rawMs/optMs))
	}
	return rep, nil
}

func runMemoryAblation(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "memory", Title: "A3: activation memory, arena planner vs per-value buffers"}
	rep.Header = []string{"model", "weights MB", "packed MB", "arena MB", "no-reuse MB", "saving"}
	b, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		plan, err := b.PrepareWith(g, backend.PrepareOpts{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		mb := func(x int64) string { return fmt.Sprintf("%.2f", float64(x)/(1<<20)) }
		rep.AddRow(modelName, mb(plan.WeightBytes()), mb(plan.ConstBytes()), mb(plan.ArenaBytes()), mb(plan.NoReuseBytes()),
			fmt.Sprintf("%.1fx", float64(plan.NoReuseBytes())/float64(plan.ArenaBytes())))
	}
	rep.AddNote("weights = constants the plan holds as is; packed = GEMM panels built at compile, which replace the weights they derive from")
	rep.AddNote("arena = liveness-planned intermediate buffers; saving = no-reuse / arena")
	return rep, nil
}

func runLayerwise(cfg *Config) (*Report, error) {
	cfg.fill()
	modelName := cfg.Models[0]
	g, err := zoo.Build(modelName, 1)
	if err != nil {
		return nil, err
	}
	b, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	plan, err := b.PrepareWith(g, backend.PrepareOpts{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "layerwise", Title: fmt.Sprintf("A4: per-layer breakdown of %s (top 12 by time)", modelName)}

	type entry struct {
		name, op, kernel string
		ms               float64
		mflops           float64
	}
	var entries []entry
	if cfg.Mode == ModeMeasure || cfg.Mode == ModeBoth {
		sess := runtime.NewSession(plan)
		x := tensor.Rand(tensor.NewRNG(1), -1, 1, g.Inputs[0].Shape...)
		in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
		if _, err := sess.Run(cfg.Ctx, in); err != nil { // warm-up
			return nil, err
		}
		_, timings, err := sess.RunProfiled(cfg.Ctx, in)
		if err != nil {
			return nil, err
		}
		for _, lt := range timings {
			entries = append(entries, entry{lt.Node.Name, lt.Node.Op, lt.Kernel,
				float64(lt.Duration) / 1e6, float64(lt.Flops) / 1e6})
		}
	} else {
		for _, st := range plan.Steps() {
			entries = append(entries, entry{st.Node.Name, st.Node.Op, st.Kernel,
				float64(cfg.Device.EstimateNode(st.Node, st.Kernel)) / 1e6,
				float64(ops.NodeFlops(st.Node)) / 1e6})
		}
	}
	var totalMs float64
	for _, e := range entries {
		totalMs += e.ms
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ms > entries[j].ms })
	if len(entries) > 12 {
		entries = entries[:12]
	}
	rep.Header = []string{"layer", "op", "kernel", "ms", "MFLOPs", "% of total"}
	for _, e := range entries {
		rep.AddRow(e.name, e.op, e.kernel, fmt.Sprintf("%.3f", e.ms),
			fmt.Sprintf("%.1f", e.mflops), fmt.Sprintf("%.1f%%", 100*e.ms/totalMs))
	}
	rep.AddNote("total %s: %s ms over %d layers", modelName, fmtMs(totalMs), len(plan.Steps()))
	return rep, nil
}

func runAutotuneAblation(cfg *Config) (*Report, error) {
	cfg.fill()
	rep := &Report{ID: "autotune", Title: "A5: fixed policy vs size heuristic vs auto-tuning"}
	rep.Header = []string{"model", "orpheus ms", "heuristic ms", "tuned ms", "best"}
	for _, modelName := range cfg.Models {
		g, err := zoo.Build(modelName, 1)
		if err != nil {
			return nil, err
		}
		row := []any{modelName}
		bestName, bestMs := "", 0.0
		for _, bname := range []string{"orpheus", "orpheus-heuristic", "orpheus-tuned"} {
			b, err := backend.ByName(bname)
			if err != nil {
				return nil, err
			}
			res := runModelBackend(cfg, g, modelName, b)
			if res.excluded != "" {
				row = append(row, "n/a")
				continue
			}
			ms := res.ms(cfg.Mode)
			row = append(row, fmtMs(ms))
			if bestName == "" || ms < bestMs {
				bestName, bestMs = bname, ms
			}
		}
		row = append(row, bestName)
		rep.AddRow(row...)
	}
	rep.AddNote("auto-tuning measures every registered kernel per layer signature and caches the winner")
	return rep, nil
}
