//go:build !noasm

#include "textflag.h"

// func microKernel6x16AVX2(pa, pb, c *float32, kc, ldc int64, store bool)
//
// One 6x16 fp32 micro-tile of C in twelve YMM accumulators (Y0..Y11, two
// 8-wide registers per row). Each k step loads one 16-wide B strip (Y12,
// Y13) and issues six VBROADCASTSS, each feeding two FMAs, so one
// broadcast serves 16 columns. The k-loop is unrolled 2x; pa advances 12
// floats per iteration, pb 32.
TEXT ·microKernel6x16AVX2(SB), NOSPLIT, $0-41
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
	JNZ   overwrite616

	// Accumulate: C row += accumulator, two halves per row.
	VADDPS (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	VADDPS 32(DI), Y1, Y1
	VMOVUPS Y1, 32(DI)
	ADDQ R8, DI
	VADDPS (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	VADDPS 32(DI), Y3, Y3
	VMOVUPS Y3, 32(DI)
	ADDQ R8, DI
	VADDPS (DI), Y4, Y4
	VMOVUPS Y4, (DI)
	VADDPS 32(DI), Y5, Y5
	VMOVUPS Y5, 32(DI)
	ADDQ R8, DI
	VADDPS (DI), Y6, Y6
	VMOVUPS Y6, (DI)
	VADDPS 32(DI), Y7, Y7
	VMOVUPS Y7, 32(DI)
	ADDQ R8, DI
	VADDPS (DI), Y8, Y8
	VMOVUPS Y8, (DI)
	VADDPS 32(DI), Y9, Y9
	VMOVUPS Y9, 32(DI)
	ADDQ R8, DI
	VADDPS (DI), Y10, Y10
	VMOVUPS Y10, (DI)
	VADDPS 32(DI), Y11, Y11
	VMOVUPS Y11, 32(DI)
	VZEROUPPER
	RET

overwrite616:
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

// func microKernel16x16AVX512(pa, pb, c *float32, kc, ldc int64, store bool)
//
// One 16x16 fp32 micro-tile of C in sixteen ZMM accumulators (Z0..Z15, one
// 16-wide register per row). Each k step loads one 16-wide B strip row
// (Z16) and issues sixteen VFMADD231PS.BCST, each taking its row's A value
// as an embedded broadcast memory operand, so no broadcast register or
// separate broadcast load sits between the A panel and the FMA.
// Accumulators are zeroed with VPXORQ (VXORPS on ZMM requires AVX512DQ;
// the probe only guarantees AVX512F). pa and pb advance 16 floats per step.
TEXT ·microKernel16x16AVX512(SB), NOSPLIT, $0-41
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
	JNZ   overwrite1616

	// Accumulate: C row += accumulator, row by row.
	VADDPS (DI), Z0, Z0
	VMOVUPS Z0, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z2, Z2
	VMOVUPS Z2, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z3, Z3
	VMOVUPS Z3, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z4, Z4
	VMOVUPS Z4, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z5, Z5
	VMOVUPS Z5, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z6, Z6
	VMOVUPS Z6, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z7, Z7
	VMOVUPS Z7, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z8, Z8
	VMOVUPS Z8, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z9, Z9
	VMOVUPS Z9, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z10, Z10
	VMOVUPS Z10, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z11, Z11
	VMOVUPS Z11, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z12, Z12
	VMOVUPS Z12, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z13, Z13
	VMOVUPS Z13, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z14, Z14
	VMOVUPS Z14, (DI)
	ADDQ R8, DI
	VADDPS (DI), Z15, Z15
	VMOVUPS Z15, (DI)
	VZEROUPPER
	RET

overwrite1616:
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

// func edge16AVX512(pa, pb, c *float32, kd, ldc, strips, cols int64, store bool)
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
// first when accumulating), and the rest shift down one register.
//
// Registers: AX k offset, CX A strip bytes (kd*64), DX B column base,
// SI A block base, DI C block base, R8 C strip bytes (16*ldc*4), R9
// columns left, R10 strips left, R11 strips in the block, R12 R13 R14 BX
// the block's strip pointers, Z31 the row offsets r*ldc.
TEXT ·edge16AVX512(SB), NOSPLIT, $0-57
	MOVQ kd+24(FP), CX
	SHLQ $6, CX
	MOVQ ldc+32(FP), R8
	VPBROADCASTD R8, Z31
	VPMULLD rowIdx<>(SB), Z31, Z31
	SHLQ $6, R8
	MOVQ cols+48(FP), R9

chunkE512:
	MOVQ cols+48(FP), AX     // column base of this chunk: cols - R9
	SUBQ R9, AX
	MOVQ pb+8(FP), DX
	LEAQ (DX)(AX*4), DX
	MOVQ c+16(FP), DI
	LEAQ (DI)(AX*4), DI
	MOVQ pa+0(FP), SI
	MOVQ strips+40(FP), R10

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
	MOVBLZX store+56(FP), AX
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
	TESTQ AX, AX
	JNZ   scatterE512
	KXNORW K0, K0, K2
	VGATHERDPS (BX)(Z31*4), K2, Z30
	VADDPS Z30, Z0, Z0

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
	SUBQ R11, R10
	JGT  blockE512
	SUBQ $4, R9              // next 4 columns
	JGT  chunkE512
	VZEROUPPER
	RET

// func edge6AVX2(pa, pb, c *float32, kd, ldc, strips, cols int64, store bool)
//
// The exact-width column edge of the 6x16 tile, in edge16AVX512's scheme
// at AVX2 width: one YMM holds one column of one 6-row strip (lanes 6 and
// 7 are loaded as zero by a masked load and never written), columns go in
// chunks of up to 2 and strips in blocks of 4 (chain of column j, strip s
// in Y(4j+s)), then one at a time (chain j in Y(4j)), and each FMA keeps
// the tile's operand order — accumulator, A, then B in the memory slot.
// There is no scatter: a finished chain is spilled to the frame and its 6
// rows are stored (or added, acc + c) one at a time.
//
// Registers: AX k offset (A), CX A strip bytes (kd*24), DX B column base,
// SI A block base, DI C block base, R8 C strip bytes (6*ldc*4), R9
// columns left, R10 strips left, R11 B pointer (then strips in the
// block), R12 R13 R14 BX the block's strip pointers, Y15 the 6-lane load
// mask.
TEXT ·edge6AVX2(SB), NOSPLIT, $32-57
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
	VMOVUPS Y0, 0(SP)
	CMPB store+56(FP), $0
	JNE  storeE6
	VMOVSS 0(SP), X14
	VADDSS (BX), X14, X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 4(SP), X14
	VADDSS (BX), X14, X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 8(SP), X14
	VADDSS (BX), X14, X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 12(SP), X14
	VADDSS (BX), X14, X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 16(SP), X14
	VADDSS (BX), X14, X14
	VMOVSS X14, (BX)
	ADDQ AX, BX
	VMOVSS 20(SP), X14
	VADDSS (BX), X14, X14
	VMOVSS X14, (BX)
	JMP  wbnextE6

storeE6:
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
	SUBQ R11, R10
	JGT  blockE6
	SUBQ $2, R9              // next 2 columns
	JGT  chunkE6
	VZEROUPPER
	RET

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
