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
