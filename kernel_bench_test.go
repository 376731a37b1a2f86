package orpheus

// Kernel-vs-kernel benchmarks behind BENCH_pr3.json: the same GEMM Call
// and the same models executed under every selectable micro-kernel
// (gemm.KernelNames: the pure-Go fallback plus the SIMD kernels this CPU
// dispatches to). Everything above the micro-kernel is identical across
// sub-benchmarks, so ns/op ratios isolate the kernel itself. CI records
// both families, plus BenchmarkBatch, into BENCH_pr3.json via
// cmd/orpheus-benchjson.
//
//	go test -run '^$' -bench 'BenchmarkKernel' -benchmem .

import (
	"context"
	"fmt"
	"testing"

	"orpheus/internal/backend"
	"orpheus/internal/gemm"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// restoreKernel returns a cleanup restoring the current kernel selection.
func restoreKernel(b *testing.B) func() {
	prev := gemm.KernelName()
	return func() {
		if err := gemm.SetKernel(prev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelGEMM times one production-shaped GEMM (prepacked constant
// A, overwrite semantics, single worker) per micro-kernel. SetBytes
// reports 2·M·N·K "bytes" so the MB/s column reads as FLOP/s.
func BenchmarkKernelGEMM(b *testing.B) {
	defer restoreKernel(b)()
	shapes := []struct{ m, n, k int }{
		{64, 256, 576},   // wrn-40-2 mid 3x3 conv GEMM
		{128, 784, 64},   // mobilenet pointwise
		{256, 256, 256},  // square reference
		{64, 12544, 576}, // resnet-ish wide conv
	}
	for _, sh := range shapes {
		r := tensor.NewRNG(tensor.SeedFromString(fmt.Sprintf("kb-%d-%d-%d", sh.m, sh.n, sh.k)))
		a := make([]float32, sh.m*sh.k)
		for i := range a {
			a[i] = r.Uniform(-1, 1)
		}
		bb := make([]float32, sh.k*sh.n)
		for i := range bb {
			bb[i] = r.Uniform(-1, 1)
		}
		c := make([]float32, sh.m*sh.n)
		for _, kn := range gemm.KernelNames() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.m, sh.n, sh.k, kn), func(b *testing.B) {
				if err := gemm.SetKernel(kn); err != nil {
					b.Fatal(err)
				}
				// Prepack under the kernel that will consume the panels.
				pa := gemm.PrepackA(a, sh.m, sh.k)
				call := gemm.Call{PackedA: pa, B: bb, C: c, M: sh.m, N: sh.n, K: sh.k, Store: true}
				var ctx gemm.Context
				ctx.Run(call) // warm-up grows packing scratch
				b.SetBytes(2 * int64(sh.m) * int64(sh.n) * int64(sh.k))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx.Run(call)
				}
			})
		}
	}
}

// BenchmarkKernelModel times one full single-sample inference per
// micro-kernel for the two PR-trajectory models. The plan is rebuilt under
// each kernel so the constant-weight prepack cache carries that kernel's
// panel geometry — exactly what a process restart under
// ORPHEUS_GEMM_KERNEL would produce.
func BenchmarkKernelModel(b *testing.B) {
	defer restoreKernel(b)()
	for _, model := range []string{"wrn-40-2", "mobilenet-v1"} {
		g := cachedModel(b, model)
		for _, kn := range gemm.KernelNames() {
			b.Run(model+"/"+kn, func(b *testing.B) {
				if err := gemm.SetKernel(kn); err != nil {
					b.Fatal(err)
				}
				be, err := backend.ByName("orpheus")
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
				if _, err := sess.Run(context.Background(), in); err != nil { // warm-up packs weights
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
}

// restoreKernel8 returns a cleanup restoring the int8 kernel selection.
func restoreKernel8(b *testing.B) func() {
	prev := gemm.Kernel8Name()
	return func() {
		if err := gemm.SetKernel8(prev); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSrc8 is a PackSrc8 over a pre-quantized u8 activation matrix (K×N
// row-major, single image): PackPanel8 is pure byte shuffling, matching
// the production pack-boundary cost after bulk quantization.
type benchSrc8 struct {
	q    []byte
	k, n int
}

// PackPanel8 implements gemm.PackSrc8 in the k-quad strip layout.
func (s *benchSrc8) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	kcq4 := (kc + 3) &^ 3
	need := (nc + nr - 1) / nr * nr * kcq4
	for i := range dst[:need] {
		dst[i] = 0
	}
	for j := 0; j < nc; j++ {
		base := j/nr*nr*kcq4 + j%nr*4
		for p := 0; p < kc; p++ {
			dst[base+(p>>2)*nr*4+p&3] = s.q[(pp+p)*s.n+jj+j]
		}
	}
}

// BenchmarkKernelGEMMInt8 is the quantized counterpart of
// BenchmarkKernelGEMM: one production-shaped u8×s8 GEMM (prepacked
// constant A, pre-quantized B, fused requantize epilogue) per int8
// micro-kernel, on the same shapes so the two families compare directly.
// SetBytes again reports 2·M·N·K so the MB/s column reads as (int) FLOP/s.
func BenchmarkKernelGEMMInt8(b *testing.B) {
	defer restoreKernel8(b)()
	shapes := []struct{ m, n, k int }{
		{64, 256, 576},   // wrn-40-2 mid 3x3 conv GEMM
		{128, 784, 64},   // mobilenet pointwise
		{256, 256, 256},  // square reference
		{64, 12544, 576}, // resnet-ish wide conv
	}
	for _, sh := range shapes {
		r := tensor.NewRNG(tensor.SeedFromString(fmt.Sprintf("kb8-%d-%d-%d", sh.m, sh.n, sh.k)))
		a := make([]int8, sh.m*sh.k)
		for i := range a {
			a[i] = int8(r.Uniform(-63, 64))
		}
		q := make([]byte, sh.k*sh.n)
		for i := range q {
			q[i] = byte(r.Uniform(0, 256))
		}
		scaleA := make([]float32, sh.m)
		bias := make([]float32, sh.m)
		for i := range scaleA {
			scaleA[i] = 1.0 / 63
			bias[i] = r.Uniform(-1, 1)
		}
		rowSum := make([]int32, sh.m)
		gemm.RowSumsInt8(rowSum, a, sh.m, sh.k)
		c := make([]float32, sh.m*sh.n)
		src := &benchSrc8{q: q, k: sh.k, n: sh.n}
		for _, kn := range gemm.Kernel8Names() {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", sh.m, sh.n, sh.k, kn), func(b *testing.B) {
				if err := gemm.SetKernel8(kn); err != nil {
					b.Fatal(err)
				}
				// Prepack under the kernel that will consume the panels.
				pa := gemm.PrepackAInt8(a, sh.m, sh.k)
				call := gemm.CallInt8{
					PackedA: pa, B: src, C: c, M: sh.m, N: sh.n, K: sh.k,
					ScaleA: scaleA, RowSum: rowSum,
					BScale: []float32{0.011}, BZero: []int32{128},
					BiasRow: bias, Act: gemm.ActReLU,
				}
				var ctx gemm.Context
				ctx.RunInt8(call) // warm-up grows packing scratch
				b.SetBytes(2 * int64(sh.m) * int64(sh.n) * int64(sh.k))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx.RunInt8(call)
				}
			})
		}
	}
}

// BenchmarkQuantModel times full single-sample inference with the plan
// compiled fp32 versus int8 (WithInt8 / PrepareOpts.Int8) — the quick
// in-process counterpart of the benchmark's dense-fp32 / dense-int8
// workloads, and the one to profile (-cpuprofile). The weights-B/run
// metric reports the packed constant footprint, which the int8 tier
// shrinks roughly 4x.
func BenchmarkQuantModel(b *testing.B) {
	for _, model := range []string{"wrn-40-2", "mobilenet-v1", "resnet-18"} {
		g := cachedModel(b, model)
		for _, mode := range []string{"fp32", "int8"} {
			b.Run(model+"/"+mode, func(b *testing.B) {
				be, err := backend.ByName("orpheus")
				if err != nil {
					b.Fatal(err)
				}
				plan, err := be.PrepareWith(g, backend.PrepareOpts{Workers: 1, MaxBatch: 1, Int8: mode == "int8"})
				if err != nil {
					b.Fatal(err)
				}
				sess := runtime.NewSession(plan)
				x := tensor.Rand(tensor.NewRNG(1), -1, 1, g.Inputs[0].Shape...)
				in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
				if _, err := sess.Run(context.Background(), in); err != nil { // warm-up packs weights
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
				b.ReportMetric(float64(plan.ConstBytes()), "weights-B")
			})
		}
	}
}

// BenchmarkLayoutModel times full single-sample inference with the plan
// compiled NCHW versus NHWC (PrepareOpts.Layout) — the PR-10 before/after
// pair behind BENCH_pr10.json. Every zoo model appears so the pairs show
// where channel-innermost execution wins (depthwise-heavy nets) and where
// the NCHW tier stays ahead; the auto arbiter keeps the faster side.
func BenchmarkLayoutModel(b *testing.B) {
	for _, model := range []string{"wrn-40-2", "mobilenet-v1", "resnet-18", "inception-v3", "resnet-50"} {
		g := cachedModel(b, model)
		for _, layout := range []string{"nchw", "nhwc"} {
			b.Run(model+"/"+layout, func(b *testing.B) {
				be, err := backend.ByName("orpheus")
				if err != nil {
					b.Fatal(err)
				}
				plan, err := be.PrepareWith(g, backend.PrepareOpts{Workers: 1, MaxBatch: 1, Layout: layout})
				if err != nil {
					b.Fatal(err)
				}
				sess := runtime.NewSession(plan)
				x := tensor.Rand(tensor.NewRNG(1), -1, 1, g.Inputs[0].Shape...)
				in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
				if _, err := sess.Run(context.Background(), in); err != nil { // warm-up packs weights
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
}

// BenchmarkConvImplicit times full single-sample inference with the GEMM
// convolution path flipped between the production implicit form
// (conv.im2col: virtual B-pack + fused epilogue) and the explicit form
// (conv.im2col_explicit: materialised kdim×cols unfold, separate
// bias/activation sweeps) — the PR-5 before/after pair behind
// BENCH_pr5.json. The scratch-B/run metric reports the per-session kernel
// scratch footprint, which carries the unfold buffers the implicit path
// deletes.
func BenchmarkConvImplicit(b *testing.B) {
	for _, model := range []string{"wrn-40-2", "resnet-18", "mobilenet-v1"} {
		g := cachedModel(b, model)
		for _, kernel := range []string{"conv.im2col", "conv.im2col_explicit"} {
			label := "implicit"
			if kernel == "conv.im2col_explicit" {
				label = "explicit"
			}
			b.Run(model+"/"+label, func(b *testing.B) {
				work := g.Clone()
				if err := work.Finalize(); err != nil {
					b.Fatal(err)
				}
				if _, err := passes.Default().Run(work); err != nil {
					b.Fatal(err)
				}
				plan, err := runtime.Compile(work, runtime.Options{
					Policy: &backend.PreferencePolicy{
						PolicyName: "bench-" + label,
						Prefs: map[string][]string{
							"Conv":  {"conv.depthwise", kernel},
							"Dense": {"dense.gemm"},
						},
					},
					Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				sess := runtime.NewSession(plan)
				x := tensor.Rand(tensor.NewRNG(1), -1, 1, work.Inputs[0].Shape...)
				in := map[string]*tensor.Tensor{work.Inputs[0].Name: x}
				if _, err := sess.Run(context.Background(), in); err != nil { // warm-up packs weights
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
				b.ReportMetric(float64(sess.CtxScratchBytes()), "scratch-B/run")
			})
		}
	}
}
