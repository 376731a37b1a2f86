//go:build !noasm

#include "textflag.h"

// Finishing a tile (see epi): with a row bias, one broadcast per row,
// added to both halves of the row — without relu a +0 bias OR-ed with the
// sign, added sum first (ROWBIAS6); under it added bias first, then the
// max with +0 taken, zero first (ROWRELU6). Y14 is +0.
#define ROWBIAS6(off, lo, hi) \
	VBROADCASTSS off(BX), Y12; \
	VPCMPEQD     Y14, Y12, Y13; \
	VPSLLD       $31, Y13, Y13; \
	VPOR         Y13, Y12, Y12; \
	VADDPS       Y12, lo, lo; \
	VADDPS       Y12, hi, hi

#define ROWRELU6(off, lo, hi) \
	VBROADCASTSS off(BX), Y12; \
	VADDPS       lo, Y12, lo; \
	VADDPS       hi, Y12, hi; \
	VMAXPS       lo, Y14, lo; \
	VMAXPS       hi, Y14, hi

// func microKernel6x16AVX2(pa, pb, c *float32, kc, ldc int64, store bool, row, col *float32, relu bool)
//
// One 6x16 fp32 micro-tile of C in twelve YMM accumulators (Y0..Y11, two
// 8-wide registers per row). Each k step loads one 16-wide B strip (Y12,
// Y13) and issues six VBROADCASTSS, each feeding two FMAs, so one
// broadcast serves 16 columns. The k-loop is unrolled 2x; pa advances 12
// floats per iteration, pb 32. The tile then adds C (unless store),
// finishes with row, col and relu (see epi) and stores each row once.
TEXT ·microKernel6x16AVX2(SB), NOSPLIT, $0-65
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8              // C row stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	MOVQ CX, BX              // BX = kc; the low bit selects the tail step
	SHRQ $1, CX              // CX = pairs of k steps
	JZ   ktail616

kloop616:
	VMOVUPS (DX), Y12        // B strip halves, step 0
	VMOVUPS 32(DX), Y13
	PREFETCHT0 384(SI)       // next A strips, eight iterations ahead
	PREFETCHT0 512(DX)       // next B strips, four iterations ahead
	VBROADCASTSS 0(SI), Y14
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VBROADCASTSS 4(SI), Y14
	VFMADD231PS Y12, Y14, Y2
	VFMADD231PS Y13, Y14, Y3
	VBROADCASTSS 8(SI), Y14
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VBROADCASTSS 12(SI), Y14
	VFMADD231PS Y12, Y14, Y6
	VFMADD231PS Y13, Y14, Y7
	VBROADCASTSS 16(SI), Y14
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VBROADCASTSS 20(SI), Y14
	VFMADD231PS Y12, Y14, Y10
	VFMADD231PS Y13, Y14, Y11
	VMOVUPS 64(DX), Y12      // B strip halves, step 1
	VMOVUPS 96(DX), Y13
	VBROADCASTSS 24(SI), Y14
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VBROADCASTSS 28(SI), Y14
	VFMADD231PS Y12, Y14, Y2
	VFMADD231PS Y13, Y14, Y3
	VBROADCASTSS 32(SI), Y14
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VBROADCASTSS 36(SI), Y14
	VFMADD231PS Y12, Y14, Y6
	VFMADD231PS Y13, Y14, Y7
	VBROADCASTSS 40(SI), Y14
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VBROADCASTSS 44(SI), Y14
	VFMADD231PS Y12, Y14, Y10
	VFMADD231PS Y13, Y14, Y11
	ADDQ $48, SI
	ADDQ $128, DX
	DECQ CX
	JNZ  kloop616

ktail616:
	ANDQ $1, BX
	JZ   kdone616
	VMOVUPS (DX), Y12        // odd kc: one last single step
	VMOVUPS 32(DX), Y13
	VBROADCASTSS 0(SI), Y14
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VBROADCASTSS 4(SI), Y14
	VFMADD231PS Y12, Y14, Y2
	VFMADD231PS Y13, Y14, Y3
	VBROADCASTSS 8(SI), Y14
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VBROADCASTSS 12(SI), Y14
	VFMADD231PS Y12, Y14, Y6
	VFMADD231PS Y13, Y14, Y7
	VBROADCASTSS 16(SI), Y14
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VBROADCASTSS 20(SI), Y14
	VFMADD231PS Y12, Y14, Y10
	VFMADD231PS Y13, Y14, Y11

kdone616:
	MOVBLZX store+40(FP), AX
	TESTL AX, AX
	JNZ   fin616

	// Accumulate: each accumulator half += its C half, accumulator first.
	MOVQ DI, BX
	VADDPS (BX), Y0, Y0
	VADDPS 32(BX), Y1, Y1
	ADDQ R8, BX
	VADDPS (BX), Y2, Y2
	VADDPS 32(BX), Y3, Y3
	ADDQ R8, BX
	VADDPS (BX), Y4, Y4
	VADDPS 32(BX), Y5, Y5
	ADDQ R8, BX
	VADDPS (BX), Y6, Y6
	VADDPS 32(BX), Y7, Y7
	ADDQ R8, BX
	VADDPS (BX), Y8, Y8
	VADDPS 32(BX), Y9, Y9
	ADDQ R8, BX
	VADDPS (BX), Y10, Y10
	VADDPS 32(BX), Y11, Y11

fin616:
	VXORPS Y14, Y14, Y14     // +0
	MOVQ row+48(FP), BX
	TESTQ BX, BX
	JZ   col616
	CMPB relu+64(FP), $0
	JNE  rowrelu616
	ROWBIAS6(0, Y0, Y1)
	ROWBIAS6(4, Y2, Y3)
	ROWBIAS6(8, Y4, Y5)
	ROWBIAS6(12, Y6, Y7)
	ROWBIAS6(16, Y8, Y9)
	ROWBIAS6(20, Y10, Y11)
	JMP  write616            // no column bias comes with a row bias

rowrelu616:
	ROWRELU6(0, Y0, Y1)
	ROWRELU6(4, Y2, Y3)
	ROWRELU6(8, Y4, Y5)
	ROWRELU6(12, Y6, Y7)
	ROWRELU6(16, Y8, Y9)
	ROWRELU6(20, Y10, Y11)
	JMP  write616

col616:
	MOVQ col+56(FP), BX
	TESTQ BX, BX
	JZ   relu616
	VADDPS (BX), Y14, Y12    // +0 + col, as store's bv + bcol
	VADDPS 32(BX), Y14, Y13
	VADDPS Y0, Y12, Y0
	VADDPS Y1, Y13, Y1
	VADDPS Y2, Y12, Y2
	VADDPS Y3, Y13, Y3
	VADDPS Y4, Y12, Y4
	VADDPS Y5, Y13, Y5
	VADDPS Y6, Y12, Y6
	VADDPS Y7, Y13, Y7
	VADDPS Y8, Y12, Y8
	VADDPS Y9, Y13, Y9
	VADDPS Y10, Y12, Y10
	VADDPS Y11, Y13, Y11

relu616:
	CMPB relu+64(FP), $0
	JEQ  write616
	VMAXPS Y0, Y14, Y0       // zero first: −0 and NaN pass through
	VMAXPS Y1, Y14, Y1
	VMAXPS Y2, Y14, Y2
	VMAXPS Y3, Y14, Y3
	VMAXPS Y4, Y14, Y4
	VMAXPS Y5, Y14, Y5
	VMAXPS Y6, Y14, Y6
	VMAXPS Y7, Y14, Y7
	VMAXPS Y8, Y14, Y8
	VMAXPS Y9, Y14, Y9
	VMAXPS Y10, Y14, Y10
	VMAXPS Y11, Y14, Y11

write616:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	ADDQ R8, DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, 32(DI)
	VZEROUPPER
	RET

// Finishing a 16x16 tile: with a row bias, one broadcast per row —
// without relu a +0 bias OR-ed (under K1) with the sign in Z19, added sum
// first (ROWBIAS16); under it added bias first, then the max with +0
// taken, zero first (ROWRELU16). Z18 is +0.
#define ROWBIAS16(off, z) \
	VBROADCASTSS off(BX), Z17; \
	VPCMPEQD     Z18, Z17, K1; \
	VPORD        Z19, Z17, K1, Z17; \
	VADDPS       Z17, z, z

#define ROWRELU16(off, z) \
	VBROADCASTSS off(BX), Z17; \
	VADDPS       z, Z17, z; \
	VMAXPS       z, Z18, z

// func microKernel16x16AVX512(pa, pb, c *float32, kc, ldc int64, store bool, row, col *float32, relu bool)
//
// One 16x16 fp32 micro-tile of C in sixteen ZMM accumulators (Z0..Z15, one
// 16-wide register per row). Each k step loads one 16-wide B strip row
// (Z16) and issues sixteen VFMADD231PS.BCST, each taking its row's A value
// as an embedded broadcast memory operand, so no broadcast register or
// separate broadcast load sits between the A panel and the FMA.
// Accumulators are zeroed with VPXORQ (VXORPS on ZMM requires AVX512DQ;
// the probe only guarantees AVX512F). pa and pb advance 16 floats per step.
// The tile then adds C (unless store), finishes with row, col and relu
// (see epi) and stores each row once.
TEXT ·microKernel16x16AVX512(SB), NOSPLIT, $0-65
	MOVQ pa+0(FP), SI
	MOVQ pb+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8              // C row stride in bytes

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

kloop1616:
	VMOVUPS (DX), Z16        // B strip row
	PREFETCHT0 1024(SI)      // A/B strips 16 k steps ahead
	PREFETCHT0 1024(DX)
	VFMADD231PS.BCST 0(SI), Z16, Z0
	VFMADD231PS.BCST 4(SI), Z16, Z1
	VFMADD231PS.BCST 8(SI), Z16, Z2
	VFMADD231PS.BCST 12(SI), Z16, Z3
	VFMADD231PS.BCST 16(SI), Z16, Z4
	VFMADD231PS.BCST 20(SI), Z16, Z5
	VFMADD231PS.BCST 24(SI), Z16, Z6
	VFMADD231PS.BCST 28(SI), Z16, Z7
	VFMADD231PS.BCST 32(SI), Z16, Z8
	VFMADD231PS.BCST 36(SI), Z16, Z9
	VFMADD231PS.BCST 40(SI), Z16, Z10
	VFMADD231PS.BCST 44(SI), Z16, Z11
	VFMADD231PS.BCST 48(SI), Z16, Z12
	VFMADD231PS.BCST 52(SI), Z16, Z13
	VFMADD231PS.BCST 56(SI), Z16, Z14
	VFMADD231PS.BCST 60(SI), Z16, Z15
	ADDQ $64, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  kloop1616

	MOVBLZX store+40(FP), AX
	TESTL AX, AX
	JNZ   fin1616

	// Accumulate: each accumulator += its C row, accumulator first.
	MOVQ DI, BX
	VADDPS (BX), Z0, Z0
	ADDQ R8, BX
	VADDPS (BX), Z1, Z1
	ADDQ R8, BX
	VADDPS (BX), Z2, Z2
	ADDQ R8, BX
	VADDPS (BX), Z3, Z3
	ADDQ R8, BX
	VADDPS (BX), Z4, Z4
	ADDQ R8, BX
	VADDPS (BX), Z5, Z5
	ADDQ R8, BX
	VADDPS (BX), Z6, Z6
	ADDQ R8, BX
	VADDPS (BX), Z7, Z7
	ADDQ R8, BX
	VADDPS (BX), Z8, Z8
	ADDQ R8, BX
	VADDPS (BX), Z9, Z9
	ADDQ R8, BX
	VADDPS (BX), Z10, Z10
	ADDQ R8, BX
	VADDPS (BX), Z11, Z11
	ADDQ R8, BX
	VADDPS (BX), Z12, Z12
	ADDQ R8, BX
	VADDPS (BX), Z13, Z13
	ADDQ R8, BX
	VADDPS (BX), Z14, Z14
	ADDQ R8, BX
	VADDPS (BX), Z15, Z15

fin1616:
	VPXORQ Z18, Z18, Z18     // +0
	MOVQ row+48(FP), BX
	TESTQ BX, BX
	JZ   col1616
	CMPB relu+64(FP), $0
	JNE  rowrelu1616
	MOVL $0x80000000, AX     // the +0 → −0 rule holds without relu
	VPBROADCASTD AX, Z19
	ROWBIAS16(0, Z0)
	ROWBIAS16(4, Z1)
	ROWBIAS16(8, Z2)
	ROWBIAS16(12, Z3)
	ROWBIAS16(16, Z4)
	ROWBIAS16(20, Z5)
	ROWBIAS16(24, Z6)
	ROWBIAS16(28, Z7)
	ROWBIAS16(32, Z8)
	ROWBIAS16(36, Z9)
	ROWBIAS16(40, Z10)
	ROWBIAS16(44, Z11)
	ROWBIAS16(48, Z12)
	ROWBIAS16(52, Z13)
	ROWBIAS16(56, Z14)
	ROWBIAS16(60, Z15)
	JMP  write1616           // no column bias comes with a row bias

rowrelu1616:
	ROWRELU16(0, Z0)
	ROWRELU16(4, Z1)
	ROWRELU16(8, Z2)
	ROWRELU16(12, Z3)
	ROWRELU16(16, Z4)
	ROWRELU16(20, Z5)
	ROWRELU16(24, Z6)
	ROWRELU16(28, Z7)
	ROWRELU16(32, Z8)
	ROWRELU16(36, Z9)
	ROWRELU16(40, Z10)
	ROWRELU16(44, Z11)
	ROWRELU16(48, Z12)
	ROWRELU16(52, Z13)
	ROWRELU16(56, Z14)
	ROWRELU16(60, Z15)
	JMP  write1616

col1616:
	MOVQ col+56(FP), BX
	TESTQ BX, BX
	JZ   relu1616
	VADDPS (BX), Z18, Z17    // +0 + col, as store's bv + bcol
	VADDPS Z0, Z17, Z0
	VADDPS Z1, Z17, Z1
	VADDPS Z2, Z17, Z2
	VADDPS Z3, Z17, Z3
	VADDPS Z4, Z17, Z4
	VADDPS Z5, Z17, Z5
	VADDPS Z6, Z17, Z6
	VADDPS Z7, Z17, Z7
	VADDPS Z8, Z17, Z8
	VADDPS Z9, Z17, Z9
	VADDPS Z10, Z17, Z10
	VADDPS Z11, Z17, Z11
	VADDPS Z12, Z17, Z12
	VADDPS Z13, Z17, Z13
	VADDPS Z14, Z17, Z14
	VADDPS Z15, Z17, Z15

relu1616:
	CMPB relu+64(FP), $0
	JEQ  write1616
	VMAXPS Z0, Z18, Z0
	VMAXPS Z1, Z18, Z1
	VMAXPS Z2, Z18, Z2
	VMAXPS Z3, Z18, Z3
	VMAXPS Z4, Z18, Z4
	VMAXPS Z5, Z18, Z5
	VMAXPS Z6, Z18, Z6
	VMAXPS Z7, Z18, Z7
	VMAXPS Z8, Z18, Z8
	VMAXPS Z9, Z18, Z9
	VMAXPS Z10, Z18, Z10
	VMAXPS Z11, Z18, Z11
	VMAXPS Z12, Z18, Z12
	VMAXPS Z13, Z18, Z13
	VMAXPS Z14, Z18, Z14
	VMAXPS Z15, Z18, Z15

write1616:
	VMOVUPS Z0, (DI)
	ADDQ R8, DI
	VMOVUPS Z1, (DI)
	ADDQ R8, DI
	VMOVUPS Z2, (DI)
	ADDQ R8, DI
	VMOVUPS Z3, (DI)
	ADDQ R8, DI
	VMOVUPS Z4, (DI)
	ADDQ R8, DI
	VMOVUPS Z5, (DI)
	ADDQ R8, DI
	VMOVUPS Z6, (DI)
	ADDQ R8, DI
	VMOVUPS Z7, (DI)
	ADDQ R8, DI
	VMOVUPS Z8, (DI)
	ADDQ R8, DI
	VMOVUPS Z9, (DI)
	ADDQ R8, DI
	VMOVUPS Z10, (DI)
	ADDQ R8, DI
	VMOVUPS Z11, (DI)
	ADDQ R8, DI
	VMOVUPS Z12, (DI)
	ADDQ R8, DI
	VMOVUPS Z13, (DI)
	ADDQ R8, DI
	VMOVUPS Z14, (DI)
	ADDQ R8, DI
	VMOVUPS Z15, (DI)
	VZEROUPPER
	RET

// func edge16AVX512(pa, pb, c *float32, kd, ldc, strips, cols int64, store bool, row, col *float32, relu bool)
//
// The exact-width column edge of the 16x16 tile: columns [0, cols) of one
// 16-wide B strip against strips 16-row A strips. Each vector holds one
// column of one strip — its 16 rows, loaded straight from the packed A
// k-group — and each B value of a k step is broadcast once for the strips
// it feeds, so a k step issues cols FMAs per strip, not 16. The columns go
// in chunks of up to 4, the strips of a chunk in blocks of 4 (16 chains,
// the chain of column j, strip s in Z(4j+s)) and the last strips one at a
// time (chain j in Z(4j)). Each FMA keeps the tile's operand order —
// accumulator, B, then A in the memory slot — so every element equals the
// tile's bit for bit. A finished block goes to c one chain at a time: the
// chain in Z0 scatters its 16 rows, ldc apart (gathering and adding them
// first when accumulating) after finishing them (see epi): the strip's 16
// row biases are one vector, a column bias one broadcast. The rest shift
// down one register.
//
// Registers: AX k offset, CX A strip bytes (kd*64), DX B column base,
// SI A block base, DI C block base, R8 C strip bytes (16*ldc*4), R9
// columns left, R10 strips left, R11 strips in the block, R12 R13 R14 BX
// the block's strip pointers, Z31 the row offsets r*ldc, Z18 +0, Z19 the
// sign the +0 → −0 rule ORs into a row bias without relu; 0(SP) the row
// bias of the block's first strip.
TEXT ·edge16AVX512(SB), NOSPLIT, $8-81
	MOVQ kd+24(FP), CX
	SHLQ $6, CX
	MOVQ ldc+32(FP), R8
	VPBROADCASTD R8, Z31
	VPMULLD rowIdx<>(SB), Z31, Z31
	SHLQ $6, R8
	MOVQ cols+48(FP), R9
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	CMPB relu+80(FP), $0
	JNE  chunkE512
	MOVL $0x80000000, AX
	VPBROADCASTD AX, Z19

chunkE512:
	MOVQ cols+48(FP), AX     // column base of this chunk: cols - R9
	SUBQ R9, AX
	MOVQ pb+8(FP), DX
	LEAQ (DX)(AX*4), DX
	MOVQ c+16(FP), DI
	LEAQ (DI)(AX*4), DI
	MOVQ pa+0(FP), SI
	MOVQ strips+40(FP), R10
	MOVQ row+64(FP), AX
	MOVQ AX, 0(SP)

blockE512:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z4, Z4, Z4
	VPXORQ Z8, Z8, Z8
	VPXORQ Z12, Z12, Z12
	XORQ AX, AX
	MOVQ $1, R11
	CMPQ R10, $4
	JLT  kloop1E512
	MOVQ $4, R11
	MOVQ SI, R12
	LEAQ (R12)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), BX
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15

kloop4E512:
	VMOVUPS (R12)(AX*1), Z24 // the k-group of each strip
	VMOVUPS (R13)(AX*1), Z25
	VMOVUPS (R14)(AX*1), Z26
	VMOVUPS (BX)(AX*1), Z27
	VBROADCASTSS (DX)(AX*1), Z28
	VFMADD231PS Z24, Z28, Z0
	VFMADD231PS Z25, Z28, Z1
	VFMADD231PS Z26, Z28, Z2
	VFMADD231PS Z27, Z28, Z3
	CMPQ R9, $2
	JLT  knext4E512
	VBROADCASTSS 4(DX)(AX*1), Z29
	VFMADD231PS Z24, Z29, Z4
	VFMADD231PS Z25, Z29, Z5
	VFMADD231PS Z26, Z29, Z6
	VFMADD231PS Z27, Z29, Z7
	CMPQ R9, $3
	JLT  knext4E512
	VBROADCASTSS 8(DX)(AX*1), Z28
	VFMADD231PS Z24, Z28, Z8
	VFMADD231PS Z25, Z28, Z9
	VFMADD231PS Z26, Z28, Z10
	VFMADD231PS Z27, Z28, Z11
	CMPQ R9, $4
	JLT  knext4E512
	VBROADCASTSS 12(DX)(AX*1), Z29
	VFMADD231PS Z24, Z29, Z12
	VFMADD231PS Z25, Z29, Z13
	VFMADD231PS Z26, Z29, Z14
	VFMADD231PS Z27, Z29, Z15

knext4E512:
	ADDQ $64, AX
	CMPQ AX, CX
	JLT  kloop4E512
	JMP  writeE512

kloop1E512:
	VMOVUPS (SI)(AX*1), Z24  // one strip: chain j in Z(4j)
	VBROADCASTSS (DX)(AX*1), Z28
	VFMADD231PS Z24, Z28, Z0
	CMPQ R9, $2
	JLT  knext1E512
	VBROADCASTSS 4(DX)(AX*1), Z29
	VFMADD231PS Z24, Z29, Z4
	CMPQ R9, $3
	JLT  knext1E512
	VBROADCASTSS 8(DX)(AX*1), Z28
	VFMADD231PS Z24, Z28, Z8
	CMPQ R9, $4
	JLT  knext1E512
	VBROADCASTSS 12(DX)(AX*1), Z29
	VFMADD231PS Z24, Z29, Z12

knext1E512:
	ADDQ $64, AX
	CMPQ AX, CX
	JLT  kloop1E512

	// Write the block: chain n = 4j+s sits in Z0 on its turn.
writeE512:
	MOVQ $4, R12             // R12 = 4 * columns in this chunk
	CMPQ R9, $4
	CMOVQLT R9, R12
	SHLQ $2, R12
	XORQ R13, R13

wbE512:
	MOVQ R13, R14
	ANDQ $3, R14             // strip s
	CMPQ R14, R11
	JGE  wbnextE512          // no strip s in this block
	MOVQ R13, BX
	SHRQ $2, BX
	LEAQ (DI)(BX*4), BX      // column j
	IMULQ R8, R14
	ADDQ R14, BX             // row 16s of column j
	KXNORW K0, K0, K1
	CMPB store+56(FP), $0
	JNE  finE512
	KXNORW K0, K0, K2
	VGATHERDPS (BX)(Z31*4), K2, Z30
	VADDPS Z30, Z0, Z0

finE512:
	MOVQ row+64(FP), AX
	TESTQ AX, AX
	JZ   colE512
	MOVQ R13, R14
	ANDQ $3, R14
	SHLQ $6, R14
	ADDQ 0(SP), R14          // strip s's 16 row biases
	VMOVUPS (R14), Z17
	CMPB relu+80(FP), $0
	JNE  rowreluE512
	VPCMPEQD Z18, Z17, K2
	VPORD Z19, Z17, K2, Z17
	VADDPS Z17, Z0, Z0
	JMP  scatterE512

rowreluE512:
	VADDPS Z0, Z17, Z0
	VMAXPS Z0, Z18, Z0
	JMP  scatterE512

colE512:
	MOVQ col+72(FP), AX
	TESTQ AX, AX
	JZ   reluE512
	MOVQ R13, R14
	SHRQ $2, R14
	ADDQ cols+48(FP), R14
	SUBQ R9, R14             // column j of the edge
	VBROADCASTSS (AX)(R14*4), Z17
	VADDPS Z17, Z18, Z17
	VADDPS Z0, Z17, Z0

reluE512:
	CMPB relu+80(FP), $0
	JEQ  scatterE512
	VMAXPS Z0, Z18, Z0

scatterE512:
	VSCATTERDPS Z0, K1, (BX)(Z31*4)

wbnextE512:
	INCQ R13
	CMPQ R13, R12
	JGE  blockdoneE512
	VMOVAPS Z1, Z0
	VMOVAPS Z2, Z1
	VMOVAPS Z3, Z2
	VMOVAPS Z4, Z3
	VMOVAPS Z5, Z4
	VMOVAPS Z6, Z5
	VMOVAPS Z7, Z6
	VMOVAPS Z8, Z7
	VMOVAPS Z9, Z8
	VMOVAPS Z10, Z9
	VMOVAPS Z11, Z10
	VMOVAPS Z12, Z11
	VMOVAPS Z13, Z12
	VMOVAPS Z14, Z13
	VMOVAPS Z15, Z14
	JMP  wbE512

blockdoneE512:
	MOVQ CX, AX              // next R11 strips
	IMULQ R11, AX
	ADDQ AX, SI
	MOVQ R8, AX
	IMULQ R11, AX
	ADDQ AX, DI
	MOVQ R11, AX
	SHLQ $6, AX
	ADDQ AX, 0(SP)
	SUBQ R11, R10
	JGT  blockE512
	SUBQ $4, R9              // next 4 columns
	JGT  chunkE512
	VZEROUPPER
	RET

// func edge6AVX2(pa, pb, c *float32, kd, ldc, strips, cols int64, store bool, row, col *float32, relu bool)
//
// The exact-width column edge of the 6x16 tile, in edge16AVX512's scheme
// at AVX2 width: one YMM holds one column of one 6-row strip (lanes 6 and
// 7 are loaded as zero by a masked load and never written), columns go in
// chunks of up to 2 and strips in blocks of 4 (chain of column j, strip s
// in Y(4j+s)), then one at a time (chain j in Y(4j)), and each FMA keeps
// the tile's operand order — accumulator, A, then B in the memory slot.
// There is no scatter: a chain is spilled to the frame, its 6 rows are
// added (acc + c) one at a time unless storing, it is finished as a vector
// (see epi) and its rows are stored one at a time.
//
// Registers: AX k offset (A), CX A strip bytes (kd*24), DX B column base,
// SI A block base, DI C block base, R8 C strip bytes (6*ldc*4), R9
// columns left, R10 strips left, R11 B pointer (then strips in the
// block), R12 R13 R14 BX the block's strip pointers, Y15 the 6-lane load
// mask; 0(SP) the spilled chain, 32(SP) the row bias of the block's first
// strip.
TEXT ·edge6AVX2(SB), NOSPLIT, $40-81
	MOVQ kd+24(FP), CX
	IMULQ $24, CX
	MOVQ ldc+32(FP), R8
	IMULQ $24, R8
	MOVQ cols+48(FP), R9
	VPCMPEQD Y15, Y15, Y15   // load mask: lanes 0-5 set, 6-7 clear
	VXORPS   Y14, Y14, Y14
	VPBLENDD $0xc0, Y14, Y15, Y15

chunkE6:
	MOVQ cols+48(FP), AX     // column base of this chunk: cols - R9
	SUBQ R9, AX
	MOVQ pb+8(FP), DX
	LEAQ (DX)(AX*4), DX
	MOVQ c+16(FP), DI
	LEAQ (DI)(AX*4), DI
	MOVQ pa+0(FP), SI
	MOVQ strips+40(FP), R10
	MOVQ row+64(FP), AX
	MOVQ AX, 32(SP)

blockE6:
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	XORQ AX, AX
	MOVQ DX, R11
	CMPQ R10, $4
	JLT  kloop1E6
	MOVQ SI, R12
	LEAQ (R12)(CX*1), R13
	LEAQ (R13)(CX*1), R14
	LEAQ (R14)(CX*1), BX
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

kloop4E6:
	VMASKMOVPS (R12)(AX*1), Y15, Y8 // the k-group of each strip
	VMASKMOVPS (R13)(AX*1), Y15, Y9
	VMASKMOVPS (R14)(AX*1), Y15, Y10
	VMASKMOVPS (BX)(AX*1), Y15, Y11
	VBROADCASTSS (R11), Y12
	VFMADD231PS Y12, Y8, Y0
	VFMADD231PS Y12, Y9, Y1
	VFMADD231PS Y12, Y10, Y2
	VFMADD231PS Y12, Y11, Y3
	CMPQ R9, $2
	JLT  knext4E6
	VBROADCASTSS 4(R11), Y13
	VFMADD231PS Y13, Y8, Y4
	VFMADD231PS Y13, Y9, Y5
	VFMADD231PS Y13, Y10, Y6
	VFMADD231PS Y13, Y11, Y7

knext4E6:
	ADDQ $64, R11
	ADDQ $24, AX
	CMPQ AX, CX
	JLT  kloop4E6
	MOVQ $4, R11
	JMP  writeE6

kloop1E6:
	VMASKMOVPS (SI)(AX*1), Y15, Y8 // one strip: chain j in Y(4j)
	VBROADCASTSS (R11), Y12
	VFMADD231PS Y12, Y8, Y0
	CMPQ R9, $2
	JLT  knext1E6
	VBROADCASTSS 4(R11), Y13
	VFMADD231PS Y13, Y8, Y4

knext1E6:
	ADDQ $64, R11
	ADDQ $24, AX
	CMPQ AX, CX
	JLT  kloop1E6
	MOVQ $1, R11

	// Write the block: chain n = 4j+s sits in Y0 on its turn.
writeE6:
	MOVQ $2, R12             // R12 = 4 * columns in this chunk
	CMPQ R9, $2
	CMOVQLT R9, R12
	SHLQ $2, R12
	MOVQ ldc+32(FP), AX
	SHLQ $2, AX              // C row bytes
	XORQ R13, R13

wbE6:
	MOVQ R13, R14
	ANDQ $3, R14             // strip s
	CMPQ R14, R11
	JGE  wbnextE6            // no strip s in this block
	MOVQ R13, BX
	SHRQ $2, BX
	LEAQ (DI)(BX*4), BX      // column j
	IMULQ R8, R14
	ADDQ R14, BX             // row 6s of column j
	CMPB store+56(FP), $0
	JNE  finE6
	VMOVUPS Y0, 0(SP)        // accumulate: chain + c, row by row
	MOVQ BX, R14
	VMOVSS 0(SP), X14
	VADDSS (R14), X14, X14
	VMOVSS X14, 0(SP)
	ADDQ AX, R14
	VMOVSS 4(SP), X14
	VADDSS (R14), X14, X14
	VMOVSS X14, 4(SP)
	ADDQ AX, R14
	VMOVSS 8(SP), X14
	VADDSS (R14), X14, X14
	VMOVSS X14, 8(SP)
	ADDQ AX, R14
	VMOVSS 12(SP), X14
	VADDSS (R14), X14, X14
	VMOVSS X14, 12(SP)
	ADDQ AX, R14
	VMOVSS 16(SP), X14
	VADDSS (R14), X14, X14
	VMOVSS X14, 16(SP)
	ADDQ AX, R14
	VMOVSS 20(SP), X14
	VADDSS (R14), X14, X14
	VMOVSS X14, 20(SP)
	VMOVUPS 0(SP), Y0

finE6:
	VXORPS Y8, Y8, Y8        // +0
	MOVQ row+64(FP), R14
	TESTQ R14, R14
	JZ   colE6
	MOVQ R13, R14
	ANDQ $3, R14
	IMULQ $24, R14
	ADDQ 32(SP), R14
	VMASKMOVPS (R14), Y15, Y9 // strip s's 6 row biases
	CMPB relu+80(FP), $0
	JNE  rowreluE6
	VPCMPEQD Y8, Y9, Y10     // the +0 → −0 rule holds without relu
	VPSLLD $31, Y10, Y10
	VPOR Y10, Y9, Y9
	VADDPS Y9, Y0, Y0
	JMP  storeE6

rowreluE6:
	VADDPS Y0, Y9, Y0
	VMAXPS Y0, Y8, Y0
	JMP  storeE6

colE6:
	MOVQ col+72(FP), R14
	TESTQ R14, R14
	JZ   reluE6
	MOVQ R13, R14
	SHRQ $2, R14
	ADDQ cols+48(FP), R14
	SUBQ R9, R14             // column j of the edge
	SHLQ $2, R14
	ADDQ col+72(FP), R14
	VBROADCASTSS (R14), Y9
	VADDPS Y9, Y8, Y9
	VADDPS Y0, Y9, Y0

reluE6:
	CMPB relu+80(FP), $0
	JEQ  storeE6
	VMAXPS Y0, Y8, Y0

storeE6:
	VMOVUPS Y0, 0(SP)
	VMOVSS 0(SP), X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 4(SP), X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 8(SP), X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 12(SP), X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 16(SP), X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 20(SP), X14
	VMOVSS X14, (BX)

wbnextE6:
	INCQ R13
	CMPQ R13, R12
	JGE  blockdoneE6
	VMOVAPS Y1, Y0
	VMOVAPS Y2, Y1
	VMOVAPS Y3, Y2
	VMOVAPS Y4, Y3
	VMOVAPS Y5, Y4
	VMOVAPS Y6, Y5
	VMOVAPS Y7, Y6
	JMP  wbE6

blockdoneE6:
	MOVQ CX, AX              // next R11 strips
	IMULQ R11, AX
	ADDQ AX, SI
	MOVQ R8, AX
	IMULQ R11, AX
	ADDQ AX, DI
	MOVQ R11, AX
	IMULQ $24, AX
	ADDQ AX, 32(SP)
	SUBQ R11, R10
	JGT  blockE6
	SUBQ $2, R9              // next 2 columns
	JGT  chunkE6
	VZEROUPPER
	RET

// func rows16AVX512(pa, pb, c *float32, kd, ldc, rows, nc int64, store bool, row, col *float32, relu bool)
//
// The exact-height row edge of the 16x16 tile: rows [0, rows) of one
// 16-row A strip against the B panel's 16-wide strips up to column nc,
// rows < 16. A row goes at a time, its strips in groups of up to 8 — one
// ZMM chain per strip, so eight chains hide the FMA latency that a single
// one would wait on — and each k step broadcasts the row's A value once
// for the group. Each FMA keeps the tile's operand order (accumulator, B,
// then A), so every element equals the tile's bit for bit. A group's
// chains then go to C one at a time through Z0, like the column edge's:
// C added unless storing, finished (see epi), and stored under a mask of
// the columns below nc.
//
// Registers: BX k steps left, CX strip bytes (kd*64, A and B alike), DX
// R10 R11 the group's first, fourth and seventh B strips, SI row r's A
// values, DI C, R8 C row bytes, R9 strips in the group, R12 row r, R13 the
// group's first strip, R14 the strip being written, Z18 +0, Z19 the sign
// the +0 → −0 rule ORs into a row bias without relu.
TEXT ·rows16AVX512(SB), NOSPLIT, $0-81
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	CMPB relu+80(FP), $0
	JNE  startR16
	MOVL $0x80000000, AX
	VPBROADCASTD AX, Z19

startR16:
	XORQ R12, R12

rowR16:
	XORQ R13, R13

groupR16:
	MOVQ kd+24(FP), CX
	SHLQ $6, CX
	MOVQ nc+48(FP), R9
	ADDQ $15, R9
	SHRQ $4, R9
	SUBQ R13, R9             // strips left
	MOVQ $8, AX
	CMPQ R9, AX
	CMOVQGT AX, R9           // strips in this group
	MOVQ R13, DX
	IMULQ CX, DX
	ADDQ pb+8(FP), DX
	LEAQ (DX)(CX*2), R10
	ADDQ CX, R10
	LEAQ (R10)(CX*2), R11
	ADDQ CX, R11
	MOVQ pa+0(FP), SI
	LEAQ (SI)(R12*4), SI
	MOVQ kd+24(FP), BX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	CMPQ R9, $8
	JLT  kpartR16

kfullR16:
	VBROADCASTSS (SI), Z16
	VMOVUPS (DX), Z20
	VMOVUPS (DX)(CX*1), Z21
	VMOVUPS (DX)(CX*2), Z22
	VMOVUPS (R10), Z23
	VFMADD231PS Z16, Z20, Z0
	VFMADD231PS Z16, Z21, Z1
	VFMADD231PS Z16, Z22, Z2
	VFMADD231PS Z16, Z23, Z3
	VMOVUPS (R10)(CX*1), Z24
	VMOVUPS (R10)(CX*2), Z25
	VMOVUPS (R11), Z26
	VMOVUPS (R11)(CX*1), Z27
	VFMADD231PS Z16, Z24, Z4
	VFMADD231PS Z16, Z25, Z5
	VFMADD231PS Z16, Z26, Z6
	VFMADD231PS Z16, Z27, Z7
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ BX
	JNZ  kfullR16
	JMP  writeR16

kpartR16:
	VBROADCASTSS (SI), Z16
	VMOVUPS (DX), Z20
	VFMADD231PS Z16, Z20, Z0
	CMPQ R9, $2
	JLT  kpnextR16
	VMOVUPS (DX)(CX*1), Z21
	VFMADD231PS Z16, Z21, Z1
	CMPQ R9, $3
	JLT  kpnextR16
	VMOVUPS (DX)(CX*2), Z22
	VFMADD231PS Z16, Z22, Z2
	CMPQ R9, $4
	JLT  kpnextR16
	VMOVUPS (R10), Z23
	VFMADD231PS Z16, Z23, Z3
	CMPQ R9, $5
	JLT  kpnextR16
	VMOVUPS (R10)(CX*1), Z24
	VFMADD231PS Z16, Z24, Z4
	CMPQ R9, $6
	JLT  kpnextR16
	VMOVUPS (R10)(CX*2), Z25
	VFMADD231PS Z16, Z25, Z5
	CMPQ R9, $7
	JLT  kpnextR16
	VMOVUPS (R11), Z26
	VFMADD231PS Z16, Z26, Z6

kpnextR16:
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ BX
	JNZ  kpartR16

writeR16:
	MOVQ R12, DI
	IMULQ R8, DI
	ADDQ c+16(FP), DI
	MOVQ R13, AX
	SHLQ $6, AX
	ADDQ AX, DI              // row r, the group's first column
	XORQ R14, R14

wtR16:
	MOVQ R13, AX
	ADDQ R14, AX
	SHLQ $4, AX              // the strip's first column
	MOVQ nc+48(FP), CX
	SUBQ AX, CX              // columns left
	KXNORW K0, K0, K1
	CMPQ CX, $16
	JGE  accR16
	MOVL $1, BX
	SHLL CX, BX
	DECL BX
	KMOVW BX, K1             // the columns below nc

accR16:
	CMPB store+56(FP), $0
	JNE  finR16
	VMOVUPS.Z (DI), K1, Z20
	VADDPS Z20, Z0, Z0

finR16:
	MOVQ row+64(FP), DX
	TESTQ DX, DX
	JZ   colR16
	VBROADCASTSS (DX)(R12*4), Z17
	CMPB relu+80(FP), $0
	JNE  rowreluR16
	VPCMPEQD Z18, Z17, K2
	VPORD Z19, Z17, K2, Z17
	VADDPS Z17, Z0, Z0
	JMP  storeR16

rowreluR16:
	VADDPS Z0, Z17, Z0
	VMAXPS Z0, Z18, Z0
	JMP  storeR16

colR16:
	MOVQ col+72(FP), DX
	TESTQ DX, DX
	JZ   reluR16
	VMOVUPS.Z (DX)(AX*4), K1, Z17
	VADDPS Z17, Z18, Z17
	VADDPS Z0, Z17, Z0

reluR16:
	CMPB relu+80(FP), $0
	JEQ  storeR16
	VMAXPS Z0, Z18, Z0

storeR16:
	VMOVUPS Z0, K1, (DI)
	VMOVAPS Z1, Z0
	VMOVAPS Z2, Z1
	VMOVAPS Z3, Z2
	VMOVAPS Z4, Z3
	VMOVAPS Z5, Z4
	VMOVAPS Z6, Z5
	VMOVAPS Z7, Z6
	ADDQ $64, DI
	INCQ R14
	CMPQ R14, R9
	JLT  wtR16
	ADDQ $8, R13             // next group
	MOVQ nc+48(FP), AX
	ADDQ $15, AX
	SHRQ $4, AX
	CMPQ R13, AX
	JLT  groupR16
	INCQ R12                 // next row
	CMPQ R12, rows+40(FP)
	JLT  rowR16
	VZEROUPPER
	RET

// func rows6AVX2(pa, pb, c *float32, kd, ldc, rows, nc int64, store bool, row, col *float32, relu bool)
//
// The exact-height row edge of the 6x16 tile, in rows16AVX512's scheme at
// AVX2 width: a row at a time, its strips in groups of up to 4 — two YMM
// chains per strip, eight in flight — each k step broadcasting the row's
// A value once and taking the B halves as FMA memory operands, in the
// tile's operand order (accumulator, A, then B). The chains then go to C
// a strip at a time through Y0 and Y1 under masks of the columns below nc
// (tailMask): C added unless storing, finished (see epi), stored.
//
// Registers: BX k steps left, CX B strip bytes (kd*64), DX R10 the
// group's first and fourth B strips, SI row r's A values (24 bytes a k
// step), DI C, R8 C row bytes, R9 strips in the group, R12 row r, R13 the
// group's first strip, R14 the strip being written, Y8 Y9 the column
// masks, Y10 +0.
TEXT ·rows6AVX2(SB), NOSPLIT, $0-81
	MOVQ ldc+32(FP), R8
	SHLQ $2, R8
	XORQ R12, R12

rowR6:
	XORQ R13, R13

groupR6:
	MOVQ kd+24(FP), CX
	SHLQ $6, CX
	MOVQ nc+48(FP), R9
	ADDQ $15, R9
	SHRQ $4, R9
	SUBQ R13, R9             // strips left
	MOVQ $4, AX
	CMPQ R9, AX
	CMOVQGT AX, R9           // strips in this group
	MOVQ R13, DX
	IMULQ CX, DX
	ADDQ pb+8(FP), DX
	LEAQ (DX)(CX*2), R10
	ADDQ CX, R10
	MOVQ pa+0(FP), SI
	LEAQ (SI)(R12*4), SI
	MOVQ kd+24(FP), BX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	CMPQ R9, $4
	JLT  kpartR6

kfullR6:
	VBROADCASTSS (SI), Y14
	VFMADD231PS (DX), Y14, Y0
	VFMADD231PS 32(DX), Y14, Y1
	VFMADD231PS (DX)(CX*1), Y14, Y2
	VFMADD231PS 32(DX)(CX*1), Y14, Y3
	VFMADD231PS (DX)(CX*2), Y14, Y4
	VFMADD231PS 32(DX)(CX*2), Y14, Y5
	VFMADD231PS (R10), Y14, Y6
	VFMADD231PS 32(R10), Y14, Y7
	ADDQ $24, SI
	ADDQ $64, DX
	ADDQ $64, R10
	DECQ BX
	JNZ  kfullR6
	JMP  writeR6

kpartR6:
	VBROADCASTSS (SI), Y14
	VFMADD231PS (DX), Y14, Y0
	VFMADD231PS 32(DX), Y14, Y1
	CMPQ R9, $2
	JLT  kpnextR6
	VFMADD231PS (DX)(CX*1), Y14, Y2
	VFMADD231PS 32(DX)(CX*1), Y14, Y3
	CMPQ R9, $3
	JLT  kpnextR6
	VFMADD231PS (DX)(CX*2), Y14, Y4
	VFMADD231PS 32(DX)(CX*2), Y14, Y5

kpnextR6:
	ADDQ $24, SI
	ADDQ $64, DX
	DECQ BX
	JNZ  kpartR6

writeR6:
	MOVQ R12, DI
	IMULQ R8, DI
	ADDQ c+16(FP), DI
	MOVQ R13, AX
	SHLQ $6, AX
	ADDQ AX, DI              // row r, the group's first column
	VXORPS Y10, Y10, Y10
	XORQ R14, R14

wtR6:
	MOVQ R13, AX
	ADDQ R14, AX
	SHLQ $4, AX              // the strip's first column
	MOVQ nc+48(FP), BX
	SUBQ AX, BX              // columns left
	MOVQ $16, DX
	CMPQ BX, DX
	CMOVQGT DX, BX
	NEGQ BX
	LEAQ tailMask<>+64(SB), DX
	LEAQ (DX)(BX*4), DX
	VMOVDQU (DX), Y8         // the columns below nc, low half
	VMOVDQU 32(DX), Y9       // and high half
	CMPB store+56(FP), $0
	JNE  finR6
	VMASKMOVPS (DI), Y8, Y12
	VMASKMOVPS 32(DI), Y9, Y13
	VADDPS Y12, Y0, Y0
	VADDPS Y13, Y1, Y1

finR6:
	MOVQ row+64(FP), DX
	TESTQ DX, DX
	JZ   colR6
	VBROADCASTSS (DX)(R12*4), Y12
	CMPB relu+80(FP), $0
	JNE  rowreluR6
	VPCMPEQD Y10, Y12, Y13   // the +0 → −0 rule holds without relu
	VPSLLD $31, Y13, Y13
	VPOR Y13, Y12, Y12
	VADDPS Y12, Y0, Y0
	VADDPS Y12, Y1, Y1
	JMP  storeR6

rowreluR6:
	VADDPS Y0, Y12, Y0
	VADDPS Y1, Y12, Y1
	VMAXPS Y0, Y10, Y0
	VMAXPS Y1, Y10, Y1
	JMP  storeR6

colR6:
	MOVQ col+72(FP), DX
	TESTQ DX, DX
	JZ   reluR6
	LEAQ (DX)(AX*4), DX      // the strip's column biases
	VMASKMOVPS (DX), Y8, Y12
	VMASKMOVPS 32(DX), Y9, Y13
	VADDPS Y12, Y10, Y12
	VADDPS Y13, Y10, Y13
	VADDPS Y0, Y12, Y0
	VADDPS Y1, Y13, Y1

reluR6:
	CMPB relu+80(FP), $0
	JEQ  storeR6
	VMAXPS Y0, Y10, Y0
	VMAXPS Y1, Y10, Y1

storeR6:
	VMASKMOVPS Y0, Y8, (DI)
	VMASKMOVPS Y1, Y9, 32(DI)
	VMOVAPS Y2, Y0
	VMOVAPS Y3, Y1
	VMOVAPS Y4, Y2
	VMOVAPS Y5, Y3
	VMOVAPS Y6, Y4
	VMOVAPS Y7, Y5
	ADDQ $64, DI
	INCQ R14
	CMPQ R14, R9
	JLT  wtR6
	ADDQ $4, R13             // next group
	MOVQ nc+48(FP), AX
	ADDQ $15, AX
	SHRQ $4, AX
	CMPQ R13, AX
	JLT  groupR6
	INCQ R12                 // next row
	CMPQ R12, rows+40(FP)
	JLT  rowR6
	VZEROUPPER
	RET

// tailMask<> is 16 set lanes then 16 clear ones: the 16 lanes from
// tailMask<>+64-4n set the first n.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $-1
DATA tailMask<>+40(SB)/8, $-1
DATA tailMask<>+48(SB)/8, $-1
DATA tailMask<>+56(SB)/8, $-1
DATA tailMask<>+64(SB)/8, $0
DATA tailMask<>+72(SB)/8, $0
DATA tailMask<>+80(SB)/8, $0
DATA tailMask<>+88(SB)/8, $0
DATA tailMask<>+96(SB)/8, $0
DATA tailMask<>+104(SB)/8, $0
DATA tailMask<>+112(SB)/8, $0
DATA tailMask<>+120(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// rowIdx<> holds 0, 1, …, 15: times ldc, the row offsets of one column of
// a 16-row strip.
DATA rowIdx<>+0(SB)/4, $0
DATA rowIdx<>+4(SB)/4, $1
DATA rowIdx<>+8(SB)/4, $2
DATA rowIdx<>+12(SB)/4, $3
DATA rowIdx<>+16(SB)/4, $4
DATA rowIdx<>+20(SB)/4, $5
DATA rowIdx<>+24(SB)/4, $6
DATA rowIdx<>+28(SB)/4, $7
DATA rowIdx<>+32(SB)/4, $8
DATA rowIdx<>+36(SB)/4, $9
DATA rowIdx<>+40(SB)/4, $10
DATA rowIdx<>+44(SB)/4, $11
DATA rowIdx<>+48(SB)/4, $12
DATA rowIdx<>+52(SB)/4, $13
DATA rowIdx<>+56(SB)/4, $14
DATA rowIdx<>+60(SB)/4, $15
GLOBL rowIdx<>(SB), RODATA|NOPTR, $64

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
