//go:build !noasm

#include "textflag.h"

// func microKernel8x8I8AVX2(pa *int8, pb *byte, acc *int32, kq, ldc int64, store bool)
//
// 8x8 int32 accumulator block from k-quad packed int8 panels. Per quad:
// Y8 holds the 8 columns' u8 quads (32 bytes); each row broadcasts its s8
// quad into a YMM, VPMADDUBSW forms the u8×s8 pair products (exact under
// the |weight| <= 63 contract), VPMADDWD against a ones vector pair-sums
// them into eight int32 lanes, and VPADDD folds them into the row's
// accumulator. Two temp pairs (Y9/Y10, Y11/Y13) interleave adjacent rows
// to hide the 3-op dependency chains.
TEXT ·microKernel8x8I8AVX2(SB), NOSPLIT, $0-41
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DX
	MOVQ acc+16(FP), DI
	MOVQ kq+24(FP), CX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8             // row stride in bytes

	// Y12 = sixteen int16 ones (VPMADDWD pair-sum operand).
	VPCMPEQW Y12, Y12, Y12
	VPSRLW   $15, Y12, Y12

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

i8loop:
	VMOVDQU (DX), Y8        // 8 columns x 4 k bytes
	PREFETCHT0 512(DX)
	PREFETCHT0 512(SI)

	VPBROADCASTD 0(SI), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y12, Y10, Y10
	VPADDD       Y10, Y0, Y0

	VPBROADCASTD 4(SI), Y11
	VPMADDUBSW   Y11, Y8, Y13
	VPMADDWD     Y12, Y13, Y13
	VPADDD       Y13, Y1, Y1

	VPBROADCASTD 8(SI), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y12, Y10, Y10
	VPADDD       Y10, Y2, Y2

	VPBROADCASTD 12(SI), Y11
	VPMADDUBSW   Y11, Y8, Y13
	VPMADDWD     Y12, Y13, Y13
	VPADDD       Y13, Y3, Y3

	VPBROADCASTD 16(SI), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y12, Y10, Y10
	VPADDD       Y10, Y4, Y4

	VPBROADCASTD 20(SI), Y11
	VPMADDUBSW   Y11, Y8, Y13
	VPMADDWD     Y12, Y13, Y13
	VPADDD       Y13, Y5, Y5

	VPBROADCASTD 24(SI), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y12, Y10, Y10
	VPADDD       Y10, Y6, Y6

	VPBROADCASTD 28(SI), Y11
	VPMADDUBSW   Y11, Y8, Y13
	VPMADDWD     Y12, Y13, Y13
	VPADDD       Y13, Y7, Y7

	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  i8loop

	MOVBLZX store+40(FP), AX
	TESTB   AL, AL
	JZ      i8accum

	VMOVDQU Y0, (DI)
	ADDQ    R8, DI
	VMOVDQU Y1, (DI)
	ADDQ    R8, DI
	VMOVDQU Y2, (DI)
	ADDQ    R8, DI
	VMOVDQU Y3, (DI)
	ADDQ    R8, DI
	VMOVDQU Y4, (DI)
	ADDQ    R8, DI
	VMOVDQU Y5, (DI)
	ADDQ    R8, DI
	VMOVDQU Y6, (DI)
	ADDQ    R8, DI
	VMOVDQU Y7, (DI)
	VZEROUPPER
	RET

i8accum:
	VPADDD  (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    R8, DI
	VPADDD  (DI), Y1, Y1
	VMOVDQU Y1, (DI)
	ADDQ    R8, DI
	VPADDD  (DI), Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    R8, DI
	VPADDD  (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    R8, DI
	VPADDD  (DI), Y4, Y4
	VMOVDQU Y4, (DI)
	ADDQ    R8, DI
	VPADDD  (DI), Y5, Y5
	VMOVDQU Y5, (DI)
	ADDQ    R8, DI
	VPADDD  (DI), Y6, Y6
	VMOVDQU Y6, (DI)
	ADDQ    R8, DI
	VPADDD  (DI), Y7, Y7
	VMOVDQU Y7, (DI)
	VZEROUPPER
	RET

// func microKernel16x16VNNI(pa *int8, pb *byte, acc *int32, kq, ldc int64, store bool)
//
// 16x16 int32 accumulator block with AVX-512 VNNI, one ZMM accumulator
// per row (Z0..Z15). Per quad: Z16 holds the 16 columns' u8 quads (64
// bytes) and each row issues a single VPDPBUSD.BCST — the row's s8 quad
// broadcast straight from the packed A panel as the signed operand —
// accumulating 64 multiply-adds per instruction. Sixteen independent
// accumulator chains cover VPDPBUSD's latency at full issue rate, and
// each B load feeds sixteen of them. pa and pb advance 64 bytes per quad.
TEXT ·microKernel16x16VNNI(SB), NOSPLIT, $0-41
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DX
	MOVQ acc+16(FP), DI
	MOVQ kq+24(FP), CX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8             // row stride in bytes

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

vnniloop:
	VMOVDQU64 (DX), Z16     // 16 columns x 4 k bytes
	PREFETCHT0 1024(DX)
	PREFETCHT0 1024(SI)

	VPDPBUSD.BCST 0(SI), Z16, Z0
	VPDPBUSD.BCST 4(SI), Z16, Z1
	VPDPBUSD.BCST 8(SI), Z16, Z2
	VPDPBUSD.BCST 12(SI), Z16, Z3
	VPDPBUSD.BCST 16(SI), Z16, Z4
	VPDPBUSD.BCST 20(SI), Z16, Z5
	VPDPBUSD.BCST 24(SI), Z16, Z6
	VPDPBUSD.BCST 28(SI), Z16, Z7
	VPDPBUSD.BCST 32(SI), Z16, Z8
	VPDPBUSD.BCST 36(SI), Z16, Z9
	VPDPBUSD.BCST 40(SI), Z16, Z10
	VPDPBUSD.BCST 44(SI), Z16, Z11
	VPDPBUSD.BCST 48(SI), Z16, Z12
	VPDPBUSD.BCST 52(SI), Z16, Z13
	VPDPBUSD.BCST 56(SI), Z16, Z14
	VPDPBUSD.BCST 60(SI), Z16, Z15

	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  vnniloop

	MOVBLZX store+40(FP), AX
	TESTB   AL, AL
	JZ      vnniaccum

	VMOVDQU32 Z0, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z1, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z2, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z3, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z4, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z5, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z6, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z7, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z8, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z9, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z10, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z11, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z12, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z13, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z14, (DI)
	ADDQ      R8, DI
	VMOVDQU32 Z15, (DI)
	VZEROUPPER
	RET

vnniaccum:
	VPADDD    (DI), Z0, Z0
	VMOVDQU32 Z0, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z1, Z1
	VMOVDQU32 Z1, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z2, Z2
	VMOVDQU32 Z2, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z3, Z3
	VMOVDQU32 Z3, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z4, Z4
	VMOVDQU32 Z4, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z5, Z5
	VMOVDQU32 Z5, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z6, Z6
	VMOVDQU32 Z6, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z7, Z7
	VMOVDQU32 Z7, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z8, Z8
	VMOVDQU32 Z8, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z9, Z9
	VMOVDQU32 Z9, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z10, Z10
	VMOVDQU32 Z10, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z11, Z11
	VMOVDQU32 Z11, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z12, Z12
	VMOVDQU32 Z12, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z13, Z13
	VMOVDQU32 Z13, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z14, Z14
	VMOVDQU32 Z14, (DI)
	ADDQ      R8, DI
	VPADDD    (DI), Z15, Z15
	VMOVDQU32 Z15, (DI)
	VZEROUPPER
	RET

// AMX instructions, which the Go assembler cannot spell, as their VEX
// encodings (cross-checked against GNU as). Each name spells its operands:
// TILELOADD_T2_R8_R11 is TILELOADD tmm2, [r8 + r11*1], the tile's rows
// r11 bytes apart; TDPBSUD_T0_T2_T4 is tmm0 += tmm2 (signed bytes, the
// weights) · tmm4 (unsigned bytes, the activations).
#define LDTILECFG_DI BYTE $0xc4; BYTE $0xe2; BYTE $0x78; BYTE $0x49; BYTE $0x07
#define TILERELEASE BYTE $0xc4; BYTE $0xe2; BYTE $0x78; BYTE $0x49; BYTE $0xc0
#define TILEZERO_T0 BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x49; BYTE $0xc0
#define TILEZERO_T1 BYTE $0xc4; BYTE $0xe2; BYTE $0x7b; BYTE $0x49; BYTE $0xc8
#define TILELOADD_T0_CX_R13 BYTE $0xc4; BYTE $0xa2; BYTE $0x7b; BYTE $0x4b; BYTE $0x04; BYTE $0x29
#define TILELOADD_T1_BX_R13 BYTE $0xc4; BYTE $0xa2; BYTE $0x7b; BYTE $0x4b; BYTE $0x0c; BYTE $0x2b
#define TILESTORED_CX_R13_T0 BYTE $0xc4; BYTE $0xa2; BYTE $0x7a; BYTE $0x4b; BYTE $0x04; BYTE $0x29
#define TILESTORED_BX_R13_T1 BYTE $0xc4; BYTE $0xa2; BYTE $0x7a; BYTE $0x4b; BYTE $0x0c; BYTE $0x2b
#define TILELOADD_T2_R8_R11 BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x14; BYTE $0x18
#define TILELOADD_T3_R9_R11 BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x1c; BYTE $0x19
#define TILELOADD_T4_R10_R11 BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x24; BYTE $0x1a
#define TILELOADD_T5_R8_R12 BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x2c; BYTE $0x20
#define TILELOADD_T6_R9_R12 BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x34; BYTE $0x21
#define TILELOADD_T7_R10_R11 BYTE $0xc4; BYTE $0x82; BYTE $0x7b; BYTE $0x4b; BYTE $0x3c; BYTE $0x1a
#define TDPBSUD_T0_T2_T4 BYTE $0xc4; BYTE $0xe2; BYTE $0x5a; BYTE $0x5e; BYTE $0xc2
#define TDPBSUD_T1_T3_T4 BYTE $0xc4; BYTE $0xe2; BYTE $0x5a; BYTE $0x5e; BYTE $0xcb
#define TDPBSUD_T0_T5_T7 BYTE $0xc4; BYTE $0xe2; BYTE $0x42; BYTE $0x5e; BYTE $0xc5
#define TDPBSUD_T1_T6_T7 BYTE $0xc4; BYTE $0xe2; BYTE $0x42; BYTE $0x5e; BYTE $0xce

// func panelAMX(pa *int8, pb *byte, acc *int32, cfg *[64]byte, kd, ldc, strips, nb int64, first bool)
//
// One k-panel of an M-tile × column block on the AMX tile unit: strips
// 16-row A strips (packAAMX's layout) against nb 16-column B strips into
// the int32 accumulator acc (row stride ldc elements), kd ≥ 1 k-quads
// deep. first zeroes each C tile; otherwise it is loaded from acc and
// accumulated into. cfg is the tile configuration for kd mod 16 (see
// amxConfigs): tmm0–1 are C tiles, tmm2–3 A steps of 16 rows × 64 bytes,
// tmm4 a B step of 16 quad rows × 64 bytes, and tmm5–7 the same for the
// tail of kd mod 16 quads. Each B step feeds two C tiles (32×16); an odd
// strip count ends on a single-tile pass. The tile state lives only
// inside this call: LDTILECFG at entry, TILERELEASE before RET.
//
// Registers: SI is A strip s, DX B strip j, CX the C tile of (s, j) and
// BX the one 16 rows below it; R8/R9/R10 walk the A/A/B steps, AX counts
// them. DI is a strip's byte size (kd·64, the same for A and B), R11 the
// step row stride 64, R12 the A tail's row stride 4·(kd mod 16) and R13
// the C row stride.
TEXT ·panelAMX(SB), NOSPLIT, $24-65
	MOVQ cfg+24(FP), DI
	LDTILECFG_DI
	MOVQ kd+32(FP), DI
	MOVQ DI, R12
	ANDQ $15, R12
	SHLQ $2, R12
	SHLQ $6, DI
	MOVQ $64, R11
	MOVQ ldc+40(FP), R13
	SHLQ $2, R13
	MOVQ pb+8(FP), DX
	MOVQ acc+16(FP), AX
	MOVQ AX, ccol-8(SP)
	MOVQ nb+56(FP), AX
	MOVQ AX, jleft-16(SP)

amxcols:
	MOVQ pa+0(FP), SI
	MOVQ ccol-8(SP), CX
	MOVQ strips+48(FP), AX
	MOVQ AX, sleft-24(SP)

amxpairs:
	CMPQ sleft-24(SP), $2
	JLT  amxsingle
	MOVQ R13, BX
	SHLQ $4, BX
	ADDQ CX, BX
	MOVBLZX first+64(FP), AX
	TESTB   AL, AL
	JZ      amxpairload
	TILEZERO_T0
	TILEZERO_T1
	JMP amxpairsteps

amxpairload:
	TILELOADD_T0_CX_R13
	TILELOADD_T1_BX_R13

amxpairsteps:
	MOVQ SI, R8
	LEAQ (SI)(DI*1), R9
	MOVQ DX, R10
	MOVQ kd+32(FP), AX
	SHRQ $4, AX
	JZ   amxpairtail

amxpairstep:
	TILELOADD_T2_R8_R11
	TILELOADD_T3_R9_R11
	TILELOADD_T4_R10_R11
	TDPBSUD_T0_T2_T4
	TDPBSUD_T1_T3_T4
	ADDQ $1024, R8
	ADDQ $1024, R9
	ADDQ $1024, R10
	DECQ AX
	JNZ  amxpairstep

amxpairtail:
	TESTQ R12, R12
	JZ    amxpairstore
	TILELOADD_T5_R8_R12
	TILELOADD_T6_R9_R12
	TILELOADD_T7_R10_R11
	TDPBSUD_T0_T5_T7
	TDPBSUD_T1_T6_T7

amxpairstore:
	TILESTORED_CX_R13_T0
	TILESTORED_BX_R13_T1
	LEAQ (SI)(DI*2), SI
	MOVQ R13, AX
	SHLQ $5, AX
	ADDQ AX, CX
	SUBQ $2, sleft-24(SP)
	JMP  amxpairs

amxsingle:
	CMPQ sleft-24(SP), $0
	JEQ  amxnext
	MOVBLZX first+64(FP), AX
	TESTB   AL, AL
	JZ      amxsingleload
	TILEZERO_T0
	JMP amxsinglesteps

amxsingleload:
	TILELOADD_T0_CX_R13

amxsinglesteps:
	MOVQ SI, R8
	MOVQ DX, R10
	MOVQ kd+32(FP), AX
	SHRQ $4, AX
	JZ   amxsingletail

amxsinglestep:
	TILELOADD_T2_R8_R11
	TILELOADD_T4_R10_R11
	TDPBSUD_T0_T2_T4
	ADDQ $1024, R8
	ADDQ $1024, R10
	DECQ AX
	JNZ  amxsinglestep

amxsingletail:
	TESTQ R12, R12
	JZ    amxsinglestore
	TILELOADD_T5_R8_R12
	TILELOADD_T7_R10_R11
	TDPBSUD_T0_T5_T7

amxsinglestore:
	TILESTORED_CX_R13_T0

amxnext:
	ADDQ DI, DX
	ADDQ $64, ccol-8(SP)
	DECQ jleft-16(SP)
	JNZ  amxcols
	TILERELEASE
	RET
