// Benchmark harness regenerating the paper's evaluation.
//
// One benchmark family per published result:
//
//   - BenchmarkFig2/<model>/<framework> — Figure 2: single-thread
//     inference time of the five models under each framework backend.
//     DarkNet runs only on the ResNets and TF-Lite is absent, as in the
//     paper. Reported ns/op is one full inference on the host CPU; the
//     shape (who wins per model) is what reproduces the figure.
//   - BenchmarkTableI — Table I: regenerates the framework comparison and
//     reports the derived Performance ratings as metrics.
//   - BenchmarkConvAlgosSweep (A1), BenchmarkPassesAblation (A2),
//     BenchmarkMemoryPlanner (A3), BenchmarkLayerwise (A4),
//     BenchmarkAutotune (A5) — the ablation studies from DESIGN.md.
//
// Run: go test -bench=. -benchmem   (add -benchtime=1x for a quick pass)
package orpheus

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"orpheus/internal/backend"
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/harness"
	"orpheus/internal/ops"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// modelCache builds each zoo model once per bench binary run.
var modelCache sync.Map

func cachedModel(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := modelCache.Load(name); ok {
		return g.(*graph.Graph)
	}
	g, err := zoo.Build(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	modelCache.Store(name, g)
	return g
}

// fig2Cells enumerates the (model, backend) pairs of the figure. The two
// largest models are benchmarked on the three main frameworks; DarkNet
// joins for the ResNets exactly as the paper reports.
var fig2Cells = []struct{ model, backendName string }{
	{"wrn-40-2", "orpheus"},
	{"wrn-40-2", "tvm-sim"},
	{"wrn-40-2", "torch-sim"},
	{"mobilenet-v1", "orpheus"},
	{"mobilenet-v1", "tvm-sim"},
	{"mobilenet-v1", "torch-sim"},
	{"resnet-18", "orpheus"},
	{"resnet-18", "tvm-sim"},
	{"resnet-18", "torch-sim"},
	{"resnet-18", "darknet-sim"},
	{"inception-v3", "orpheus"},
	{"inception-v3", "tvm-sim"},
	{"inception-v3", "torch-sim"},
	{"resnet-50", "orpheus"},
	{"resnet-50", "tvm-sim"},
	{"resnet-50", "torch-sim"},
	{"resnet-50", "darknet-sim"},
}

func BenchmarkFig2(b *testing.B) {
	for _, cell := range fig2Cells {
		cell := cell
		b.Run(cell.model+"/"+cell.backendName, func(b *testing.B) {
			g := cachedModel(b, cell.model)
			be, err := backend.ByName(cell.backendName)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := be.Prepare(g, 1)
			if err != nil {
				b.Fatal(err)
			}
			sess := runtime.NewSession(plan)
			x := tensor.Rand(tensor.NewRNG(1), -1, 1, g.Inputs[0].Shape...)
			in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
			if _, err := sess.Run(context.Background(), in); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableI regenerates Table I's derived Performance row. The
// benchmark measures the full derivation (five models through the A73
// cost model) and reports the ratings as metrics.
func BenchmarkTableI(b *testing.B) {
	var ratings map[string]int
	for i := 0; i < b.N; i++ {
		var err error
		ratings, err = harness.DerivePerformanceRatings(&harness.Config{Mode: harness.ModeSim})
		if err != nil {
			b.Fatal(err)
		}
	}
	for fw, r := range ratings {
		b.ReportMetric(float64(r), "rating-"+fw)
	}
}

// BenchmarkConvAlgosSweep (A1) times each conv algorithm on a small and a
// large layer, exposing the GEMM/spatial-pack crossover.
func BenchmarkConvAlgosSweep(b *testing.B) {
	shapes := []struct{ c, hw int }{{16, 16}, {32, 32}, {64, 28}, {128, 14}, {256, 14}}
	for _, sh := range shapes {
		r := tensor.NewRNG(tensor.SeedFromString(fmt.Sprintf("bench-%d-%d", sh.c, sh.hw)))
		g := graph.New("sweep")
		xv, _ := g.Input("x", []int{1, sh.c, sh.hw, sh.hw})
		wv, _ := g.Const("w", tensor.HeNormal(r, sh.c, sh.c, 3, 3))
		_, err := g.Add("Conv", "conv", graph.Attrs{"pads": []int{1, 1, 1, 1}}, xv, wv)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.InferShapes(); err != nil {
			b.Fatal(err)
		}
		n := g.Nodes[0]
		x := tensor.Rand(r, -1, 1, 1, sh.c, sh.hw, sh.hw)
		for _, kname := range []string{"conv.direct", "conv.im2col", "conv.spatialpack", "conv.winograd"} {
			k := ops.ByName(kname)
			if !k.Supports(n) {
				continue
			}
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.c, sh.hw, sh.hw, kname), func(b *testing.B) {
				ctx := ops.NewCtx(1)
				out := tensor.New(n.Outputs[0].Shape...)
				ins := []*tensor.Tensor{x, wv.Const}
				outs := []*tensor.Tensor{out}
				b.SetBytes(int64(ops.NodeFlops(n)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.Run(ctx, n, ins, outs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPassesAblation (A2) compares raw vs optimised execution of
// WRN-40-2.
func BenchmarkPassesAblation(b *testing.B) {
	for _, optimised := range []bool{false, true} {
		name := "raw"
		if optimised {
			name = "optimised"
		}
		b.Run(name, func(b *testing.B) {
			g := cachedModel(b, "wrn-40-2").Clone()
			if err := g.Finalize(); err != nil {
				b.Fatal(err)
			}
			if optimised {
				if _, err := passes.Default().Run(g); err != nil {
					b.Fatal(err)
				}
			}
			be, _ := backend.ByName("orpheus")
			policy := be.NewPolicy()
			plan, err := runtime.Compile(g, runtime.Options{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			sess := runtime.NewSession(plan)
			x := tensor.Rand(tensor.NewRNG(2), -1, 1, g.Inputs[0].Shape...)
			in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
			if _, err := sess.Run(context.Background(), in); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(context.Background(), in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoryPlanner (A3) measures plan compilation and reports the
// arena footprint vs the no-reuse footprint for ResNet-18.
func BenchmarkMemoryPlanner(b *testing.B) {
	g := cachedModel(b, "resnet-18")
	be, _ := backend.ByName("orpheus")
	var plan *runtime.Plan
	var err error
	for i := 0; i < b.N; i++ {
		plan, err = be.Prepare(g, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.ArenaBytes())/(1<<20), "arena-MB")
	b.ReportMetric(float64(plan.NoReuseBytes())/(1<<20), "noreuse-MB")
}

// BenchmarkLayerwise (A4) measures a fully profiled run (per-layer
// timestamps enabled) of WRN-40-2.
func BenchmarkLayerwise(b *testing.B) {
	g := cachedModel(b, "wrn-40-2")
	be, _ := backend.ByName("orpheus")
	plan, err := be.Prepare(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	sess := runtime.NewSession(plan)
	x := tensor.Rand(tensor.NewRNG(3), -1, 1, g.Inputs[0].Shape...)
	in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
	if _, err := sess.Run(context.Background(), in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sess.RunProfiled(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutotune (A5) measures WRN-40-2 under the empirically tuned
// policy (tuning happens during Prepare, outside the timed loop).
func BenchmarkAutotune(b *testing.B) {
	g := cachedModel(b, "wrn-40-2")
	be, _ := backend.ByName("orpheus-tuned")
	plan, err := be.Prepare(g, 1)
	if err != nil {
		b.Fatal(err)
	}
	sess := runtime.NewSession(plan)
	x := tensor.Rand(tensor.NewRNG(4), -1, 1, g.Inputs[0].Shape...)
	in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
	if _, err := sess.Run(context.Background(), in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Run(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictConcurrent measures saturated multi-request throughput
// through the pooled Predict path: GOMAXPROCS goroutines share one
// compiled plan (and its packed weights) while each in-flight request
// borrows a private session. Compare ns/op here against the matching
// BenchmarkFig2 single-session latency to see the scaling; the seed
// serialised requests on a single session.
func BenchmarkPredictConcurrent(b *testing.B) {
	for _, model := range []string{"wrn-40-2", "mobilenet-v1"} {
		b.Run(model, func(b *testing.B) {
			m := FromGraph(cachedModel(b, model))
			sess, err := m.Compile()
			if err != nil {
				b.Fatal(err)
			}
			x := RandomTensor(1, m.InputShape()...)
			if _, err := sess.Predict(context.Background(), x); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := sess.Predict(context.Background(), x); err != nil {
						// Fatal must not be called from RunParallel body
						// goroutines.
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBatch measures batch-native execution: one Session.Run over a
// batch of n samples on a MaxBatch-8 plan. ns/op is the whole batch;
// inf/s is the derived per-sample throughput — the number that shows the
// amortisation win as n grows (packed weight panels are read once per
// batch instead of once per sample).
func BenchmarkBatch(b *testing.B) {
	benchBatch(b, 1, []int{1, 4, 8})
}

// BenchmarkBatchParallel is BenchmarkBatch at the full core budget
// (workers = GOMAXPROCS): the regime where batch-native execution pays on
// multi-core hosts. At n=1 the late small-spatial GEMMs offer only one or
// two macro-tiles, so extra cores idle; at n=8 the pool schedules
// batch×tile, keeping every core fed. On a single-core host this
// degenerates to BenchmarkBatch.
func BenchmarkBatchParallel(b *testing.B) {
	benchBatch(b, goruntime.GOMAXPROCS(0), []int{1, 8})
}

// benchBatch is the shared measurement protocol of the batch families:
// one MaxBatch-8 plan per model, one warm-up Run per batch size (binds n,
// grows scratch, packs weights), then timed whole-batch runs with derived
// per-sample throughput.
func benchBatch(b *testing.B, workers int, ns []int) {
	const maxBatch = 8
	for _, model := range []string{"wrn-40-2", "mobilenet-v1"} {
		g := cachedModel(b, model)
		be, err := backend.ByName("orpheus")
		if err != nil {
			b.Fatal(err)
		}
		plan, err := be.PrepareBatched(g, workers, maxBatch)
		if err != nil {
			b.Fatal(err)
		}
		sess := runtime.NewSession(plan)
		for _, n := range ns {
			b.Run(fmt.Sprintf("%s/n%d", model, n), func(b *testing.B) {
				shape := plan.InputShapeAt(0, n)
				x := tensor.Rand(tensor.NewRNG(uint64(n)), -1, 1, shape...)
				in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
				if _, err := sess.Run(context.Background(), in); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sess.Run(context.Background(), in); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(n)*1e9/perOp, "inf/s")
				if workers > 1 {
					b.ReportMetric(float64(workers), "workers")
				}
			})
		}
	}
}

// BenchmarkParallelGEMM sweeps the worker-pool GEMM over a conv-shaped
// matrix (small M, wide N) to expose macro-tile scaling.
func BenchmarkParallelGEMM(b *testing.B) {
	const m, n, k = 64, 12544, 576 // resnet-ish 3x3 conv at 112x112
	r := tensor.NewRNG(5)
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = r.Uniform(-1, 1)
	}
	for i := range bb {
		bb[i] = r.Uniform(-1, 1)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var ctx gemm.Context
			pool := gemm.Shared()
			// Warm-up grows the packing scratch so the timed loop is
			// steady-state.
			pool.Run(&ctx, gemm.Call{A: a, B: bb, C: c, M: m, N: n, K: k, Store: true}, workers)
			b.SetBytes(int64(2 * m * n * k))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Run(&ctx, gemm.Call{A: a, B: bb, C: c, M: m, N: n, K: k, Store: true}, workers)
			}
		})
	}
}
