//go:build amd64 && !noasm

package gemm

// AVX2/FMA and AVX-512 dispatch for amd64. Two assembly micro-kernels,
// one per instruction set:
//
//   - avx2: a 6x16 tile in twelve YMM accumulators (two per row). Each A
//     broadcast feeds two FMAs and each k step loads two B strips for six
//     broadcasts. The default on AVX2-only hosts.
//   - avx512: a 16x16 tile in sixteen ZMM accumulators, one 16-wide
//     register per row, each FMA taking its row's A value as an embedded
//     broadcast operand. Sixteen rows make every channel count that is a
//     multiple of 16 (64, 128, 256, 512) whole strips, and 16 columns pad
//     a narrow plane by under one vector. Registered only when the CPU and
//     OS support the AVX-512F state; the default where available.
//
// Each finishes its own output (see epi): the tile, an exact-width column
// edge (edge6AVX2, edge16AVX512) for a last strip of cols < 16 columns —
// vectors over a strip's rows, one broadcast per B value, cols FMAs per
// strip and k step, blocks of 4 strips and then single strips — and an
// exact-height row edge (rows6AVX2, rows16AVX512) for a last strip of
// rows < mr rows, a row at a time against up to 4 or 8 B strips at once.
//
// Feature detection is a hand-rolled CPUID/XGETBV probe (no external
// dependency), so the portable kernel remains the default everywhere else.

func init() {
	if hasAVX2FMA() {
		fp32Kernels.register(newKernel("avx2", 6, 16, adaptTileAsm(microKernel6x16AVX2)).
			withEdges(adaptEdgeAsm(edge6AVX2), adaptRowAsm(rows6AVX2)))
	}
	if hasAVX512() {
		fp32Kernels.register(newKernel("avx512", 16, 16, adaptTileAsm(microKernel16x16AVX512)).
			withEdges(adaptEdgeAsm(edge16AVX512), adaptRowAsm(rows16AVX512)))
	}
}

// microKernel6x16AVX2 computes one 6x16 block: C[r][cc] (+)= sum_p
// pa[p*6+r]*pb[p*16+cc], with ldc the row stride of c in elements and kc
// ≥ 1, finished by the epi of row, col and relu. Implemented in
// kernel_amd64.s.
//
//go:noescape
func microKernel6x16AVX2(pa, pb, c *float32, kc, ldc int64, store bool, row, col *float32, relu bool)

// microKernel16x16AVX512 computes one 16x16 block: C[r][cc] (+)= sum_p
// pa[p*16+r]*pb[p*16+cc], with ldc the row stride of c in elements and kc
// ≥ 1, finished by the epi of row, col and relu. Implemented in
// kernel_amd64.s.
//
//go:noescape
func microKernel16x16AVX512(pa, pb, c *float32, kc, ldc int64, store bool, row, col *float32, relu bool)

// edge6AVX2 is microKernel6x16AVX2's exact-width edge (see edgeKernel):
// columns [0, cols) of the 16-wide B strip pb against strips 6-row A
// strips, cols < 16. Implemented in kernel_amd64.s.
//
//go:noescape
func edge6AVX2(pa, pb, c *float32, kd, ldc, strips, cols int64, store bool, row, col *float32, relu bool)

// edge16AVX512 is microKernel16x16AVX512's exact-width edge (see
// edgeKernel): columns [0, cols) of the 16-wide B strip pb against strips
// 16-row A strips, cols < 16. Implemented in kernel_amd64.s.
//
//go:noescape
func edge16AVX512(pa, pb, c *float32, kd, ldc, strips, cols int64, store bool, row, col *float32, relu bool)

// rows6AVX2 is microKernel6x16AVX2's exact-height row edge (see
// rowKernel): rows [0, rows) of the 6-row A strip pa against the 16-wide
// B strips of pb up to column nc, rows < 6. Implemented in kernel_amd64.s.
//
//go:noescape
func rows6AVX2(pa, pb, c *float32, kd, ldc, rows, nc int64, store bool, row, col *float32, relu bool)

// rows16AVX512 is microKernel16x16AVX512's exact-height row edge (see
// rowKernel): rows [0, rows) of the 16-row A strip pa against the 16-wide
// B strips of pb up to column nc, rows < 16. Implemented in
// kernel_amd64.s.
//
//go:noescape
func rows16AVX512(pa, pb, c *float32, kd, ldc, rows, nc int64, store bool, row, col *float32, relu bool)

// cpuid executes the CPUID instruction for (eaxIn, ecxIn).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled XSAVE state).
func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports whether this CPU and OS support the AVX2 kernel:
// CPUID must advertise OSXSAVE+AVX+FMA and AVX2, and XCR0 must show the
// OS saving both XMM and YMM register state across context switches.
func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xlo, _ := xgetbv(); xlo&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// hasAVX512 reports whether this CPU and OS support the AVX-512 kernel:
// the AVX2/FMA baseline, CPUID leaf 7 advertising AVX512F, and XCR0
// showing the OS saving the opmask, ZMM-high and high-16-ZMM state.
func hasAVX512() bool {
	if !hasAVX2FMA() {
		return false
	}
	const avx512f = 1 << 16
	_, ebx7, _, _ := cpuid(7, 0)
	if ebx7&avx512f == 0 {
		return false
	}
	// XCR0: SSE|AVX|opmask|zmm_hi256|hi16_zmm all OS-enabled.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	xlo, _ := xgetbv()
	return xlo&zmmState == zmmState
}
