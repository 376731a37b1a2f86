//go:build arm64 && !noasm

package gemm

// NEON dispatch for arm64. AdvSIMD is baseline on AArch64, so the 8x8
// kernel registers unconditionally (the noasm build tag and the
// ORPHEUS_GEMM_KERNEL=go override still select the portable fallback).
// The micro-tile lives in sixteen 128-bit vector accumulators (two 4-wide
// registers per row); each packed k step issues sixteen FMLA lane
// multiplies against one 8-wide B strip load.

func init() {
	fp32Kernels.register(newKernel("neon", 8, 8, adaptAsm(microKernel8x8NEON)))
}

// microKernel8x8NEON computes one 8x8 block: C[r][cc] (+)= sum_p
// pa[p*8+r]*pb[p*8+cc], with ldc the row stride of c in elements and kc
// ≥ 1. Implemented in kernel_arm64.s.
//
//go:noescape
func microKernel8x8NEON(pa, pb, c *float32, kc, ldc int64, store bool)
