//go:build !noasm

#include "textflag.h"

// func fmaRowAVX2(dst, a, b *float32, n int64)
//
// dst[i] += a[i]*b[i] over n elements, 8 per iteration; n is a positive
// multiple of 8 (the Go wrapper handles the scalar tail).
TEXT ·fmaRowAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $3, CX

fmaloop:
	VMOVUPS (SI), Y1
	VMOVUPS (DX), Y2
	VMOVUPS (DI), Y0
	VFMADD231PS Y2, Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  fmaloop
	VZEROUPPER
	RET

// func axpyRowsAVX2(dst *float32, ldd int64, x *float32, ldx int64, a float32, n, rows int64)
//
// dst[r*ldd+i] += a*x[r*ldx+i] for r in [0, rows), i in [0, n); n and
// rows ≥ 1. Each row goes 16 lanes at a time, then one block of 8, then
// the last n%8 as 4 + 2 + 1 lanes: exact-width stores. (One VMASKMOVPS
// would do, but a masked store holds up every load that overlaps its
// masked-out lanes — the start of the next row — until it commits, which
// more than doubled the time of a 14-wide row.)
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), R8
	MOVQ         ldd+8(FP), R10
	MOVQ         x+16(FP), R9
	MOVQ         ldx+24(FP), R11
	VBROADCASTSS a+32(FP), Y0
	MOVQ         n+40(FP), R12
	MOVQ         rows+48(FP), R13
	SHLQ         $2, R10
	SHLQ         $2, R11

axpyrow:
	MOVQ R8, DI
	MOVQ R9, SI
	MOVQ R12, CX

axpy16:
	CMPQ        CX, $16
	JLT         axpy8
	VMOVUPS     (DI), Y1
	VMOVUPS     32(DI), Y2
	VFMADD231PS (SI), Y0, Y1
	VFMADD231PS 32(SI), Y0, Y2
	VMOVUPS     Y1, (DI)
	VMOVUPS     Y2, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	SUBQ        $16, CX
	JMP         axpy16

axpy8:
	CMPQ        CX, $8
	JLT         axpytail
	VMOVUPS     (DI), Y1
	VFMADD231PS (SI), Y0, Y1
	VMOVUPS     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX

axpytail:
	TESTQ       $4, CX
	JZ          axpy2
	VMOVUPS     (DI), X1
	VFMADD231PS (SI), X0, X1
	VMOVUPS     X1, (DI)
	ADDQ        $16, SI
	ADDQ        $16, DI

axpy2:
	TESTQ       $2, CX
	JZ          axpy1
	VMOVSD      (DI), X1
	VMOVSD      (SI), X2
	VFMADD231PS X2, X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI

axpy1:
	TESTQ       $1, CX
	JZ          axpynext
	VMOVSS      (DI), X1
	VFMADD231SS (SI), X0, X1
	VMOVSS      X1, (DI)

axpynext:
	ADDQ R10, R8
	ADDQ R11, R9
	DECQ R13
	JNZ  axpyrow
	VZEROUPPER
	RET

// func axpyRows2AVX2(dst *float32, ldd int64, x *float32, ldx int64, a float32, q, tail, rows int64)
//
// dst[r*ldd+i] += a*x[r*ldx+2i] for r in [0, rows), i in [0, q+tail).
// Eight outputs per iteration over a row's first q (a multiple of 8): two
// 8-float loads, VSHUFPS keeps the even elements of each 128-bit lane
// pair and VPERMPD puts the four pairs back in order. Then tail outputs
// one at a time, still fused.
TEXT ·axpyRows2AVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), R8
	MOVQ         ldd+8(FP), R10
	MOVQ         x+16(FP), R9
	MOVQ         ldx+24(FP), R11
	VBROADCASTSS a+32(FP), Y0
	MOVQ         q+40(FP), R12
	MOVQ         tail+48(FP), BX
	MOVQ         rows+56(FP), R13
	SHLQ         $2, R10
	SHLQ         $2, R11
	SHRQ         $3, R12

axpy2row:
	MOVQ  R8, DI
	MOVQ  R9, SI
	MOVQ  R12, CX
	MOVQ  BX, DX
	TESTQ CX, CX
	JZ    axpy2tail

axpy2loop:
	VMOVUPS     (SI), Y1
	VMOVUPS     32(SI), Y2
	VSHUFPS     $0x88, Y2, Y1, Y1
	VPERMPD     $0xD8, Y1, Y1
	VMOVUPS     (DI), Y2
	VFMADD231PS Y1, Y0, Y2
	VMOVUPS     Y2, (DI)
	ADDQ        $64, SI
	ADDQ        $32, DI
	DECQ        CX
	JNZ         axpy2loop

axpy2tail:
	TESTQ DX, DX
	JZ    axpy2next

axpy2one:
	VMOVSS      (DI), X2
	VFMADD231SS (SI), X0, X2
	VMOVSS      X2, (DI)
	ADDQ        $8, SI
	ADDQ        $4, DI
	DECQ        DX
	JNZ         axpy2one

axpy2next:
	ADDQ R10, R8
	ADDQ R11, R9
	DECQ R13
	JNZ  axpy2row
	VZEROUPPER
	RET

// func maxRowsAVX2(dst *float32, ldd int64, x *float32, ldx int64, n, rows int64)
//
// dst[r*ldd+i] = max(dst[r*ldd+i], x[r*ldx+i]) for r in [0, rows), i in
// [0, n); n and rows ≥ 1. The row is cut as in axpyRowsAVX2. VMAXPS
// returns its second source — dst, the memory operand — unless the first
// is greater, which is maxRowGo's comparison bit for bit.
TEXT ·maxRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ ldd+8(FP), R10
	MOVQ x+16(FP), R9
	MOVQ ldx+24(FP), R11
	MOVQ n+32(FP), R12
	MOVQ rows+40(FP), R13
	SHLQ $2, R10
	SHLQ $2, R11

maxrow:
	MOVQ R8, DI
	MOVQ R9, SI
	MOVQ R12, CX

max16:
	CMPQ    CX, $16
	JLT     max8
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMAXPS  (DI), Y1, Y1
	VMAXPS  32(DI), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JMP     max16

max8:
	CMPQ    CX, $8
	JLT     maxtail
	VMOVUPS (SI), Y1
	VMAXPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX

maxtail:
	TESTQ   $4, CX
	JZ      max2
	VMOVUPS (SI), X1
	VMAXPS  (DI), X1, X1
	VMOVUPS X1, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI

max2:
	TESTQ  $2, CX
	JZ     max1
	VMOVSD (SI), X1
	VMOVSD (DI), X2
	VMAXPS X2, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI

max1:
	TESTQ  $1, CX
	JZ     maxnext
	VMOVSS (SI), X1
	VMAXSS (DI), X1, X1
	VMOVSS X1, (DI)

maxnext:
	ADDQ R10, R8
	ADDQ R11, R9
	DECQ R13
	JNZ  maxrow
	VZEROUPPER
	RET

// func maxRows2AVX2(dst *float32, ldd int64, x *float32, ldx int64, q, tail, rows int64)
//
// dst[r*ldd+i] = max(dst[r*ldd+i], x[r*ldx+2i]) for r in [0, rows), i in
// [0, q+tail): axpyRows2AVX2's de-interleave with VMAXPS in place of the
// FMA.
TEXT ·maxRows2AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), R8
	MOVQ ldd+8(FP), R10
	MOVQ x+16(FP), R9
	MOVQ ldx+24(FP), R11
	MOVQ q+32(FP), R12
	MOVQ tail+40(FP), BX
	MOVQ rows+48(FP), R13
	SHLQ $2, R10
	SHLQ $2, R11
	SHRQ $3, R12

max2row:
	MOVQ  R8, DI
	MOVQ  R9, SI
	MOVQ  R12, CX
	MOVQ  BX, DX
	TESTQ CX, CX
	JZ    max2tail

max2loop:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VSHUFPS $0x88, Y2, Y1, Y1
	VPERMPD $0xD8, Y1, Y1
	VMAXPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     max2loop

max2tail:
	TESTQ DX, DX
	JZ    max2next

max2one:
	VMOVSS (SI), X1
	VMAXSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $8, SI
	ADDQ   $4, DI
	DECQ   DX
	JNZ    max2one

max2next:
	ADDQ R10, R8
	ADDQ R11, R9
	DECQ R13
	JNZ  max2row
	VZEROUPPER
	RET

// evenIdx<> is the VPERMT2PS index vector that picks the even elements
// of a 32-float pair of registers: 0, 2, …, 30.
DATA evenIdx<>+0(SB)/4, $0
DATA evenIdx<>+4(SB)/4, $2
DATA evenIdx<>+8(SB)/4, $4
DATA evenIdx<>+12(SB)/4, $6
DATA evenIdx<>+16(SB)/4, $8
DATA evenIdx<>+20(SB)/4, $10
DATA evenIdx<>+24(SB)/4, $12
DATA evenIdx<>+28(SB)/4, $14
DATA evenIdx<>+32(SB)/4, $16
DATA evenIdx<>+36(SB)/4, $18
DATA evenIdx<>+40(SB)/4, $20
DATA evenIdx<>+44(SB)/4, $22
DATA evenIdx<>+48(SB)/4, $24
DATA evenIdx<>+52(SB)/4, $26
DATA evenIdx<>+56(SB)/4, $28
DATA evenIdx<>+60(SB)/4, $30
GLOBL evenIdx<>(SB), RODATA|NOPTR, $64

// laneBit<> holds bit i in lane i: AND a broadcast bit mask with it and
// compare equal, and each lane is all ones where its bit is set — the
// lane mask VMASKMOVPS takes.
DATA laneBit<>+0(SB)/4, $1
DATA laneBit<>+4(SB)/4, $2
DATA laneBit<>+8(SB)/4, $4
DATA laneBit<>+12(SB)/4, $8
DATA laneBit<>+16(SB)/4, $16
DATA laneBit<>+20(SB)/4, $32
DATA laneBit<>+24(SB)/4, $64
DATA laneBit<>+28(SB)/4, $128
GLOBL laneBit<>(SB), RODATA|NOPTR, $32

// func gatherTapsAVX512(dst, x *float32, tap *int, ldd, rows, stride, full int64, smask, lmask uint32)
//
// dst[i*ldd+j] = x[tap[i]+j*stride] for i in [0, rows), j in [0, 16*full+m).
// Each row moves full whole blocks of 16 outputs, then one block under K1
// (smask: its m stores) and K2:K3 (lmask: the elements its loads need).
// At stride 2 a block loads 32 elements in two registers and VPERMT2PS
// keeps the even ones; a whole block reads one element past what it needs,
// which lies before the next block's first, so only the masked block must
// stop short.
TEXT ·gatherTapsAVX512(SB), NOSPLIT, $0-64
	MOVQ  dst+0(FP), DI
	MOVQ  x+8(FP), SI
	MOVQ  tap+16(FP), R8
	MOVQ  ldd+24(FP), R9
	MOVQ  rows+32(FP), R10
	MOVQ  stride+40(FP), R11
	MOVQ  full+48(FP), R12
	MOVL  smask+56(FP), AX
	MOVL  lmask+60(FP), BX
	SHLQ  $2, R9
	KMOVW AX, K1
	KMOVW BX, K2
	SHRL  $16, BX
	KMOVW BX, K3
	CMPQ  R11, $1
	JNE   g512s2

g512s1row:
	MOVQ  (R8), AX
	LEAQ  (SI)(AX*4), AX
	MOVQ  DI, DX
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    g512s1last

g512s1loop:
	VMOVUPS (AX), Z0
	VMOVUPS Z0, (DX)
	ADDQ    $64, AX
	ADDQ    $64, DX
	DECQ    CX
	JNZ     g512s1loop

g512s1last:
	VMOVUPS.Z (AX), K1, Z0
	VMOVUPS   Z0, K1, (DX)
	ADDQ      R9, DI
	ADDQ      $8, R8
	DECQ      R10
	JNZ       g512s1row
	VZEROUPPER
	RET

g512s2:
	VMOVUPS evenIdx<>(SB), Z7

g512s2row:
	MOVQ  (R8), AX
	LEAQ  (SI)(AX*4), AX
	MOVQ  DI, DX
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    g512s2last

g512s2loop:
	VMOVUPS   (AX), Z0
	VMOVUPS   64(AX), Z1
	VPERMT2PS Z1, Z7, Z0
	VMOVUPS   Z0, (DX)
	ADDQ      $128, AX
	ADDQ      $64, DX
	DECQ      CX
	JNZ       g512s2loop

g512s2last:
	VMOVUPS.Z (AX), K2, Z0
	VMOVUPS.Z 64(AX), K3, Z1
	VPERMT2PS Z1, Z7, Z0
	VMOVUPS   Z0, K1, (DX)
	ADDQ      R9, DI
	ADDQ      $8, R8
	DECQ      R10
	JNZ       g512s2row
	VZEROUPPER
	RET

// func gatherTapsAVX2(dst, x *float32, tap *int, ldd, rows, stride, full int64, smask, lmask uint32)
//
// gatherTapsAVX512 in blocks of 8: the masks become VMASKMOVPS lane masks
// (Y13 the stores', Y14:Y12 the loads'), and stride 2 de-interleaves with
// axpyRows2AVX2's VSHUFPS and VPERMPD.
TEXT ·gatherTapsAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         tap+16(FP), R8
	MOVQ         ldd+24(FP), R9
	MOVQ         rows+32(FP), R10
	MOVQ         stride+40(FP), R11
	MOVQ         full+48(FP), R12
	VMOVDQU      laneBit<>(SB), Y15
	MOVL         smask+56(FP), AX
	MOVL         lmask+60(FP), BX
	VMOVD        AX, X13
	VMOVD        BX, X14
	VPBROADCASTD X13, Y13
	VPBROADCASTD X14, Y14
	VPSRLD       $8, Y14, Y12
	VPAND        Y15, Y13, Y13
	VPCMPEQD     Y15, Y13, Y13
	VPAND        Y15, Y14, Y14
	VPCMPEQD     Y15, Y14, Y14
	VPAND        Y15, Y12, Y12
	VPCMPEQD     Y15, Y12, Y12
	SHLQ         $2, R9
	CMPQ         R11, $1
	JNE          g256s2row

g256s1row:
	MOVQ  (R8), AX
	LEAQ  (SI)(AX*4), AX
	MOVQ  DI, DX
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    g256s1last

g256s1loop:
	VMOVUPS (AX), Y0
	VMOVUPS Y0, (DX)
	ADDQ    $32, AX
	ADDQ    $32, DX
	DECQ    CX
	JNZ     g256s1loop

g256s1last:
	VMASKMOVPS (AX), Y13, Y0
	VMASKMOVPS Y0, Y13, (DX)
	ADDQ       R9, DI
	ADDQ       $8, R8
	DECQ       R10
	JNZ        g256s1row
	VZEROUPPER
	RET

g256s2row:
	MOVQ  (R8), AX
	LEAQ  (SI)(AX*4), AX
	MOVQ  DI, DX
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    g256s2last

g256s2loop:
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	VSHUFPS $0x88, Y1, Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DX)
	ADDQ    $64, AX
	ADDQ    $32, DX
	DECQ    CX
	JNZ     g256s2loop

g256s2last:
	VMASKMOVPS (AX), Y14, Y0
	VMASKMOVPS 32(AX), Y12, Y1
	VSHUFPS    $0x88, Y1, Y0, Y0
	VPERMPD    $0xD8, Y0, Y0
	VMASKMOVPS Y0, Y13, (DX)
	ADDQ       R9, DI
	ADDQ       $8, R8
	DECQ       R10
	JNZ        g256s2row
	VZEROUPPER
	RET

// func reluRowAVX2(dst, src *float32, bias float32, n int64)
//
// dst[i] = relu(src[i]+bias) over n elements, 8 per iteration; n is a
// positive multiple of 8. VMAXPS returns its second source unless the
// first is greater, so with zero first a −0 or NaN sum passes through
// with its bits intact, exactly as activate's select leaves it.
TEXT ·reluRowAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS bias+16(FP), Y0
	MOVQ         n+24(FP), CX
	VXORPS       Y3, Y3, Y3
	SHRQ         $3, CX

reluloop:
	VADDPS  (SI), Y0, Y1
	VMAXPS  Y1, Y3, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     reluloop
	VZEROUPPER
	RET

// func requantRowAVX2(dst *float32, acc *int32, comp int32, s, bias, floor float32, n int64)
//
// dst[i] = max(floor, float32(acc[i]-comp)*s + bias) over n elements, 8
// per iteration; n is a positive multiple of 8. VPSUBD wraps like Go's
// int32 subtraction and VCVTDQ2PS rounds to nearest like its conversion;
// the multiply and the add round separately, as Go does (no FMA). VMAXPS
// with floor first is reluRowAVX2's select: a −0 or NaN value passes
// through, and a −Inf floor passes every value.
TEXT ·requantRowAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	VBROADCASTSS comp+16(FP), Y0 // a 32-bit broadcast: int lanes as well
	VBROADCASTSS s+20(FP), Y1
	VBROADCASTSS bias+24(FP), Y2
	VBROADCASTSS floor+28(FP), Y3
	MOVQ         n+32(FP), CX
	SHRQ         $3, CX

requantloop:
	VMOVDQU   (SI), Y4
	VPSUBD    Y0, Y4, Y4
	VCVTDQ2PS Y4, Y4
	VMULPS    Y1, Y4, Y4
	VADDPS    Y2, Y4, Y4
	VMAXPS    Y4, Y3, Y4
	VMOVUPS   Y4, (DI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       requantloop
	VZEROUPPER
	RET
