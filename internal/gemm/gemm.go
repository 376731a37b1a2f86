// Package gemm implements single-precision general matrix multiply, the
// computational core of GEMM-based convolution and dense layers in
// Orpheus.
//
// Two implementations are provided:
//
//   - Naive: textbook triple loop; the correctness reference.
//   - Packed (Context.Run, Pool.Run): panel packing plus a register-blocked
//     micro-kernel; the production path used by the Orpheus backend. It
//     supports overwrite (beta=0) semantics, prepacked constant operands
//     and virtual operands packed straight from a tensor, and has a
//     quantized u8×s8 twin (Context.RunInt8, Pool.RunInt8; int8.go).
//
// Every packed call, of either dtype, is cut into independent units — one
// (image, column block, row group) each — and executed by one walk over
// them, on the calling goroutine alone or shared with a persistent worker
// Pool (pool.go); the result is the same bit for bit either way.
//
// The packed tier's micro-kernel is chosen at runtime by CPU-feature
// dispatch (see kernel.go): AVX2/FMA 8x8 assembly on amd64, NEON 8x8 on
// arm64, and a portable pure-Go 4x8 kernel as the fallback — also
// selectable via the noasm build tag or ORPHEUS_GEMM_KERNEL=go.
// KernelName, KernelNames and SetKernel expose the selection.
//
// All operate on row-major dense matrices described by flat []float32
// slices. Dimensions are validated by the exported entry points; the inner
// kernels assume valid arguments.
package gemm

import "fmt"

func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

// validate panics if the slice lengths cannot hold the described matrices.
func validate(a, b, c []float32, m, n, k int) {
	if m < 0 || n < 0 || k < 0 {
		panicf("gemm: negative dimension m=%d n=%d k=%d", m, n, k)
	}
	if m == 0 || n == 0 || k == 0 {
		// Nothing to compute; empty buffers are fine.
		return
	}
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panicf("gemm: buffer too small for m=%d n=%d k=%d (lenA=%d lenB=%d lenC=%d)",
			m, n, k, len(a), len(b), len(c))
	}
}

// Naive computes C += A·B with the textbook triple loop. A is m×k, B is
// k×n, C is m×n, all row-major.
func Naive(a, b, c []float32, m, n, k int) {
	validate(a, b, c, m, n, k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] += s
		}
	}
}
