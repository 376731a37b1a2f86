// Package gemm implements the general matrix multiply at the core of
// GEMM-based convolution and dense layers in Orpheus, in fp32 and in
// quantized u8×s8 form.
//
// Two implementations are provided:
//
//   - Naive: textbook fp32 triple loop; the correctness reference.
//   - the packed tier: panel packing plus a register-blocked micro-kernel; the
//     production path used by the Orpheus backend. A Call (Context.Run,
//     Pool.Run) multiplies fp32 operands — raw, prepacked, or virtual
//     ones packed straight from a tensor — with overwrite (beta=0)
//     semantics; a CallInt8 (Context.RunInt8, Pool.RunInt8; int8.go)
//     multiplies int8 weights by uint8 activations quantized at the pack
//     boundary and requantizes the int32 result to fp32.
//
// Both dtypes run one walk (packed.go): a call is cut into independent
// units — one (image, column block, row group) each — and a unit sums
// its k-panels per C element in ascending order. An fp32 kernel with
// exact-width and exact-height edges (Go, AVX2, AVX-512) sums them in C
// itself and, on the last k-panel, adds the call's bias and applies its
// activation in registers before the one store of each element. NEON,
// the int8 tier and the calls those bodies do not cover sum in a
// per-Context accumulator of full micro-tiles, which the call then stores
// to C once with its epilogue. The walk runs the units on the calling
// goroutine alone or shares them with a persistent worker Pool (pool.go);
// the result is the same bit for bit either way. What differs by dtype is
// the call's own operand methods and the micro-kernel table it draws
// from.
//
// Each dtype's micro-kernel is chosen at runtime by CPU-feature dispatch
// (see kernel.go): AVX2/FMA and AVX-512 assembly on amd64, NEON on arm64,
// and a portable pure-Go 4x8 kernel as the fallback — also selectable via
// the noasm build tag or ORPHEUS_GEMM_KERNEL=go. KernelName, KernelNames
// and SetKernel expose the fp32 selection; Kernel8Name, Kernel8Names and
// SetKernel8 the int8 one.
//
// Matrices are row-major and described by flat slices. Dimensions are
// validated by the exported entry points; the inner kernels assume valid
// arguments.
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
