//go:build amd64 && !noasm

package gemm

// Int8 kernel dispatch for amd64. Three assembly kernels register when
// the CPU supports them, in this order, so the last one usable is the
// default:
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
//   - "amx" (16x16): the AMX tile unit's TDPBSUD (signed weights ×
//     unsigned activations, exact int32) does a 16×16 tile 64 k values
//     deep — 16,384 multiply-adds — per instruction. Configuring the tile
//     unit costs more than one tile's arithmetic, so the kernel is a panel
//     body: one call per M-tile × k-panel (panelAMX), configured once, with
//     two C tiles per B tile load. It reads A in its own layout (packAAMX),
//     of the same size as the tier's, and B and the accumulator exactly as
//     vnni does, so its accumulators are vnni's bit for bit.
//
// All share the fp32 tier's CPUID/XGETBV probing; VNNI additionally
// requires the OS to save opmask and ZMM state, and AMX the tile state
// plus the process's permission to use it (requestXTileData).

func init() {
	if hasAVX2FMA() {
		int8Kernels.register(newKernel("avx2", 8, 8, adaptAsm(microKernel8x8I8AVX2)))
	}
	if hasAVX512VNNI() {
		int8Kernels.register(newKernel("vnni", 16, 16, adaptAsm(microKernel16x16VNNI)))
		if hasAMXInt8() {
			int8Kernels.register(newPanelKernel("amx", 16, 16, panelAMXGo, packAAMX))
		}
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

// panelAMX runs one k-panel of an M-tile × column block with AMX
// TDPBSUD: strips 16-row A strips against nb 16-column B strips, kd ≥ 1
// k-quads deep, into the int32 accumulator acc (row stride ldc), which
// first zeroes rather than accumulates into. cfg is amxConfigs[kd%16].
// Implemented in kernel8_amd64.s.
//
//go:noescape
func panelAMX(pa *int8, pb *byte, acc *int32, cfg *[64]byte, kd, ldc, strips, nb int64, first bool)

// panelAMXGo adapts panelAMX to a panelKernel, checking once per panel
// that every strip it reads and every tile it writes lies in its slice.
func panelAMXGo(pa []int8, pb []byte, acc []int32, kd, ldc, strips, nb int, first bool) {
	const mr, nr = 16, 16
	_ = pa[strips*mr*kd*kQuad-1]
	_ = pb[nb*nr*kd*kQuad-1]
	_ = acc[(strips*mr-1)*ldc+nb*nr-1]
	panelAMX(&pa[0], &pb[0], &acc[0], &amxConfigs[kd%16], int64(kd), int64(ldc), int64(strips), int64(nb), first)
}

// amxConfigs holds the LDTILECFG block (palette 1) for each k-panel depth
// mod 16 quads: tmm0–1 C tiles of 16 rows × 16 int32, tmm2–3 A steps of
// 16 rows × 64 bytes, tmm4 a B step of 16 quad rows × 64 bytes, and for a
// nonzero remainder rem the tail tiles tmm5–6 (A, 16 rows × 4·rem bytes)
// and tmm7 (B, rem quad rows × 64 bytes). Without a tail they stay
// unconfigured.
var amxConfigs = func() (cfgs [16][64]byte) {
	for rem := range cfgs {
		cfg := &cfgs[rem]
		cfg[0] = 1 // palette
		tile := func(t, rows, colsb int) {
			cfg[16+2*t], cfg[16+2*t+1] = byte(colsb), byte(colsb>>8)
			cfg[48+t] = byte(rows)
		}
		for t := 0; t < 5; t++ {
			tile(t, 16, 64)
		}
		if rem > 0 {
			tile(5, 16, 4*rem)
			tile(6, 16, 4*rem)
			tile(7, rem, 64)
		}
	}
	return cfgs
}()

// packAAMX packs an mc×kc panel of the int8 A (row ii, col pp) into the
// AMX A layout, strips of mr = 16 rows: within each strip, every whole
// step of 16 k-quads is a tile of 16 rows × 64 bytes, each row its 64
// consecutive k bytes, and a last step of rem < 16 quads is a tile of 16
// rows × 4·rem bytes. A strip is then mr·4·ceil(kc/4) bytes, as in
// packAInt8's layout. Rows beyond mc and k beyond kc are zero-padded.
func packAAMX(dst, a []int8, ii, pp, mc, kc, lda, mr int) {
	kb := roundUp(kc, kQuad) // packed k bytes per row
	di := 0
	for i := 0; i < mc; i += mr {
		live := min(mr, mc-i)
		for p0 := 0; p0 < kb; p0 += 64 {
			w := min(64, kb-p0) // the step's row width
			for r := 0; r < mr; r++ {
				row := dst[di : di+w]
				di += w
				if r >= live {
					clear(row)
					continue
				}
				n := copy(row, a[(ii+i+r)*lda+pp+p0:(ii+i+r)*lda+pp+min(p0+w, kc)])
				clear(row[n:])
			}
		}
	}
}

// hasAMXInt8 reports whether the AMX kernel can run: CPUID must advertise
// AMX-TILE and AMX-INT8, XCR0 must show the OS managing the tile
// configuration and data state, and the OS must grant this process the
// tile data state. Callers have checked hasAVX512VNNI.
func hasAMXInt8() bool {
	const (
		amxTile = 1 << 24 // EDX
		amxInt8 = 1 << 25 // EDX
		xtile   = 1<<17 | 1<<18
	)
	_, _, _, edx7 := cpuid(7, 0)
	if edx7&(amxTile|amxInt8) != amxTile|amxInt8 {
		return false
	}
	if xlo, _ := xgetbv(); xlo&xtile != xtile {
		return false
	}
	return requestXTileData()
}
