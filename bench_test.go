// Benchmarks of the multi-worker and batched paths no row of the bench/
// suite covers yet: concurrent Predict through the session pool
// (BenchmarkPredictConcurrent), batch-native Session.Run at one worker and
// at the full core budget (BenchmarkBatch, BenchmarkBatchParallel), and
// the pooled GEMM over a conv-shaped matrix (BenchmarkParallelGEMM).
// Single-request latency, per-layer tables and the paper's figures live
// in `go run ./bench` and `orpheus-bench -experiment ...`.
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

// BenchmarkPredictConcurrent measures saturated multi-request throughput
// through the pooled Predict path: GOMAXPROCS goroutines share one
// compiled plan (and its packed weights) while each in-flight request
// borrows a private session. Compare ns/op here against the matching
// single-session latency (`go run ./bench`) to see the scaling.
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
		plan, err := be.PrepareWith(g, backend.PrepareOpts{Workers: workers, MaxBatch: maxBatch})
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
