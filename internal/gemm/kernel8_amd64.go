//go:build amd64 && !noasm

package gemm

// Int8 kernel dispatch for amd64. Two assembly micro-kernels register when
// the CPU supports them:
//
//   - "avx2" (8x8): one VPMADDUBSW (u8×s8 pair products, saturating int16)
//     + VPMADDWD against a ones vector (pair-sum to int32) + VPADDD per
//     row per k-quad — 32 multiply-adds per 4-instruction group, twice
//     the fp32 kernel's arithmetic density. The quantization contract
//     (|weight| ≤ 63) keeps every VPMADDUBSW intermediate below int16
//     saturation, so the result is exact.
//
//   - "vnni" (16x16): AVX-512 VNNI collapses the whole reduction into one
//     VPDPBUSD per row per k-quad, with the signed weight quad embedded
//     as a 32-bit broadcast memory operand — 64 multiply-adds per
//     instruction into ZMM int32 accumulators. Sixteen rows give sixteen
//     independent accumulator chains, enough to cover VPDPBUSD's latency
//     at its full issue rate, and every B load feeds sixteen of them.
//
// Both share the fp32 tier's CPUID/XGETBV probing; VNNI additionally
// requires the OS to save opmask and ZMM state.

func init() {
	if hasAVX2FMA() {
		int8Kernels.register(newKernel("avx2", 8, 8, adaptAsm(microKernel8x8I8AVX2)))
	}
	if hasAVX512VNNI() {
		int8Kernels.register(newKernel("vnni", 16, 16, adaptAsm(microKernel16x16VNNI)))
	}
}

// microKernel8x8I8AVX2 computes one 8x8 int32 accumulator block from
// packed int8 panels, kq ≥ 1 k-quads deep. Implemented in
// kernel8_amd64.s.
//
//go:noescape
func microKernel8x8I8AVX2(pa *int8, pb *byte, acc *int32, kq, ldc int64, store bool)

// microKernel16x16VNNI computes one 16x16 int32 accumulator block with
// AVX-512 VNNI VPDPBUSD, kq ≥ 1 k-quads deep. Implemented in
// kernel8_amd64.s.
//
//go:noescape
func microKernel16x16VNNI(pa *int8, pb *byte, acc *int32, kq, ldc int64, store bool)

// hasAVX512VNNI reports whether this CPU and OS support the VNNI kernel:
// CPUID must advertise OSXSAVE+AVX, AVX-512F and AVX-512 VNNI, and XCR0
// must show the OS saving XMM, YMM, opmask and full ZMM register state.
func hasAVX512VNNI() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xstate = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xlo, _ := xgetbv(); xlo&xstate != xstate {
		return false
	}
	const (
		avx512f    = 1 << 16 // EBX
		avx512vnni = 1 << 11 // ECX
	)
	_, ebx7, ecx7, _ := cpuid(7, 0)
	return ebx7&avx512f != 0 && ecx7&avx512vnni != 0
}
