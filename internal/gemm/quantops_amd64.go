//go:build amd64 && !noasm

package gemm

// AVX2 dispatch for the activation-quantization helpers. All reuse the
// fp32 kernel's CPUID/XGETBV probe; the min/max and quantize routines
// handle the aligned body and the Go wrappers finish the tail
// scalar-wise; the interleave handles any length itself.

func init() {
	if hasAVX2FMA() {
		minMaxImpl = minMaxF32AVX2Wrap
		quantizeU8Impl = quantizeU8AVX2Wrap
		interleaveImpl = interleaveQuadsAVX2Wrap
	}
}

// minMaxF32AVX2 reduces n elements (n ≥ 8, any remainder beyond the last
// full 8-lane block is handled by the caller). Implemented in
// quantops_amd64.s.
//
//go:noescape
func minMaxF32AVX2(v *float32, n int64) (lo, hi float32)

// quantizeU8AVX2 quantizes n elements where n is a multiple of 32.
// Implemented in quantops_amd64.s.
//
//go:noescape
func quantizeU8AVX2(dst *byte, src *float32, n int64, inv, zf float32)

func minMaxF32AVX2Wrap(v []float32) (lo, hi float32) {
	n := len(v) &^ 7
	if n == 0 {
		return minMaxF32Go(v)
	}
	lo, hi = minMaxF32AVX2(&v[0], int64(n))
	for _, x := range v[n:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func quantizeU8AVX2Wrap(dst []byte, src []float32, inv, zf float32) {
	n := len(src) &^ 31
	if n > 0 {
		quantizeU8AVX2(&dst[0], &src[0], int64(n), inv, zf)
	}
	quantizeU8Go(dst[n:], src[n:], inv, zf)
}

// interleaveQuadsAVX2 writes dst[4i+t] = r_t[i] for n ≥ 1 columns.
// Implemented in quantops_amd64.s.
//
//go:noescape
func interleaveQuadsAVX2(dst, r0, r1, r2, r3 *byte, n int64)

func interleaveQuadsAVX2Wrap(dst, r0, r1, r2, r3 []byte, n int) {
	_, _, _, _, _ = dst[4*n-1], r0[n-1], r1[n-1], r2[n-1], r3[n-1]
	interleaveQuadsAVX2(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], int64(n))
}
