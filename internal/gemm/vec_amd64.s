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
// (Y13 the stores', Y14:Y12 the loads'), and stride 2 de-interleaves
// each pair of 8-float loads: VSHUFPS keeps the even elements of each
// 128-bit lane pair and VPERMPD puts the four pairs back in order.
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

// laneBitHi<> is laneBit<> for bits 8 to 15: the lane mask of the second
// 8-float load of a stride-2 block.
DATA laneBitHi<>+0(SB)/4, $0x100
DATA laneBitHi<>+4(SB)/4, $0x200
DATA laneBitHi<>+8(SB)/4, $0x400
DATA laneBitHi<>+12(SB)/4, $0x800
DATA laneBitHi<>+16(SB)/4, $0x1000
DATA laneBitHi<>+20(SB)/4, $0x2000
DATA laneBitHi<>+24(SB)/4, $0x4000
DATA laneBitHi<>+28(SB)/4, $0x8000
GLOBL laneBitHi<>(SB), RODATA|NOPTR, $32

// The depthwiseArgs fields, as byte offsets.
#define DW_LDD 0
#define DW_LDX 8
#define DW_N 16
#define DW_ROWS 24
#define DW_IY0 32
#define DW_H 40
#define DW_SH 48
#define DW_DH 56
#define DW_KH 64
#define DW_KW 72
#define DW_STRIDE 80
#define DW_WSTEP 88
#define DW_WPITCH 96
#define DW_BIAS 104
#define DW_FLOOR 108
#define DW_LOOP 112

// The frame of both depthwise bodies: up to 16 tap entries of 24 bytes
// from 0(SP) — the x pointer of the column's first lane in input row 0,
// the weight pointer of window row 0, the store lanes' bit mask and the
// stride-2 loads' bit mask — then where the entries end; kh·dh; the input
// row one past a lone output row's last window row; how many lanes the
// column stores; the column's first output ox; the input row below which
// four rows' windows all lie inside the image, h − 3·sh − (kh−1)·dh, or 0;
// and dh·ldx·4, the bytes from one window row to the next.
#define DW_END 384
#define DW_KHDH 392
#define DW_KYEND 400
#define DW_LANES 408
#define DW_OX 416
#define DW_LIM 424
#define DW_DHX 432
#define DW_FRAME 440

// func depthwiseAVX512(dst, x, w *float32, taps *ColTap, a *depthwiseArgs)
//
// DepthwiseRow for strides 1 and 2, kw ≤ 16, in columns of 16 outputs.
// Each column builds its tap entries and store mask K7, then runs down its
// rows. An accumulator starts at the bias and takes, for every window row
// inside the image, every entry's tap as one VFMADD231PS merge-masked by
// its smask (K1) — a lane outside the tap's [Lo, Hi) keeps its value, as
// the portable body skips it — and is stored once, max(floor, ·), under
// K7. DW_LOOP picks the tap loop once per window row: stride 1 or 2, and
// in a max window (seeded −Inf) VMAXPS with the accumulator as its second
// source in place of the multiply-add. A load reads only its mask's elements (at stride 2, K2:K3 over two
// registers that VPERMT2PS de-interleaves), and a masked-off element is
// neither read nor faults. Rows go four at a time (Z0–Z3) wherever all
// their window rows are inside the image, so that four multiply-add
// chains are in flight; the others go one at a time (Z0).
TEXT ·depthwiseAVX512(SB), NOSPLIT, $DW_FRAME-40
	MOVQ         a+32(FP), R12
	MOVQ         DW_KH(R12), AX
	DECQ         AX
	IMULQ        DW_DH(R12), AX
	MOVQ         AX, BX
	ADDQ         DW_DH(R12), BX
	MOVQ         BX, DW_KHDH(SP)
	MOVQ         DW_SH(R12), BX
	LEAQ         (BX)(BX*2), BX
	ADDQ         BX, AX
	MOVQ         DW_H(R12), BX
	SUBQ         AX, BX
	XORQ         AX, AX
	CMPQ         BX, AX
	CMOVQLT      AX, BX
	MOVQ         BX, DW_LIM(SP)
	MOVQ         DW_DH(R12), AX
	IMULQ        DW_LDX(R12), AX
	SHLQ         $2, AX
	MOVQ         AX, DW_DHX(SP)
	MOVQ         $0, DW_OX(SP)
	VBROADCASTSS DW_BIAS(R12), Z30
	VBROADCASTSS DW_FLOOR(R12), Z31
	VMOVUPS      evenIdx<>(SB), Z29

dw512col:
	// The column's tap entries: for each kx with lanes [a, b) =
	// [Lo−ox, Hi−ox) ∩ [0, 16) not empty, smask = 2^b − 2^a and lmask =
	// 2^(2b−1) − 2^(2a), the elements [2a, 2b−1) a stride-2 load needs.
	MOVQ  DW_OX(SP), R9
	MOVQ  taps+24(FP), SI
	MOVQ  w+16(FP), DX
	MOVQ  SP, DI
	MOVQ  DW_KW(R12), R13
	MOVQ  DW_STRIDE(R12), R8
	IMULQ R9, R8
	SHLQ  $2, R8
	ADDQ  x+8(FP), R8
	MOVQ  $16, CX

dw512tap:
	MOVQ    0(SI), AX
	SUBQ    R9, AX
	MOVQ    8(SI), BX
	SUBQ    R9, BX
	XORQ    R10, R10
	CMPQ    AX, R10
	CMOVQLT R10, AX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	CMPQ    BX, CX
	CMOVQGT CX, BX
	CMPQ    AX, BX
	JGE     dw512skip
	XORQ    R10, R10
	BTSQ    BX, R10
	XORQ    R11, R11
	BTSQ    AX, R11
	SUBQ    R11, R10
	MOVL    R10, 16(DI)
	LEAQ    -1(BX)(BX*1), BX
	ADDQ    AX, AX
	XORQ    R10, R10
	BTSQ    BX, R10
	XORQ    R11, R11
	BTSQ    AX, R11
	SUBQ    R11, R10
	MOVL    R10, 20(DI)
	MOVQ    16(SI), AX
	LEAQ    (R8)(AX*4), AX
	MOVQ    AX, 0(DI)
	MOVQ    DX, 8(DI)
	ADDQ    $24, DI

dw512skip:
	ADDQ DW_WSTEP(R12), DX
	ADDQ $24, SI
	DECQ R13
	JNZ  dw512tap
	MOVQ DI, DW_END(SP)

	// How many lanes the column stores: min(W, n−ox).
	MOVQ    DW_N(R12), AX
	SUBQ    R9, AX
	MOVQ    $16, BX
	CMPQ    AX, BX
	CMOVQGT BX, AX
	XORQ    BX, BX
	BTSQ    AX, BX
	DECQ    BX
	KMOVW   BX, K7
	MOVQ    dst+0(FP), DI
	LEAQ    (DI)(R9*4), DI
	MOVQ    DW_IY0(R12), R10
	MOVQ    DW_ROWS(R12), R13
	MOVQ    DW_SH(R12), R9
	IMULQ   DW_LDX(R12), R9
	SHLQ    $2, R9

dw512row:
	CMPQ R13, $4
	JLT  dw512one
	CMPQ R10, DW_LIM(SP)
	JAE  dw512one
	// Four rows whose window rows all lie inside the image: one weight
	// broadcast and one mask per tap serve four accumulator chains, the
	// k-th row's input R9 = 4·sh·ldx bytes after the (k−1)-th's.
	VMOVAPS Z30, Z0
	VMOVAPS Z30, Z1
	VMOVAPS Z30, Z2
	VMOVAPS Z30, Z3
	MOVQ    R10, SI
	IMULQ   DW_LDX(R12), SI
	SHLQ    $2, SI
	MOVQ    DW_KH(R12), R11
	XORQ    DX, DX

dw512g4ky:
	MOVQ SP, R8
	MOVQ DW_END(SP), CX
	CMPQ R8, CX
	JEQ  dw512g4kynext
	CMPQ DW_LOOP(R12), $1
	JEQ  dw512g4s2
	JGT  dw512g4max

dw512g4s1:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	MOVQ         8(R8), BX
	KMOVW        16(R8), K1
	VBROADCASTSS (BX)(DX*1), Z4
	VMOVUPS.Z    (AX), K1, Z5
	VMOVUPS.Z    (AX)(R9*1), K1, Z6
	LEAQ         (AX)(R9*2), AX
	VMOVUPS.Z    (AX), K1, Z7
	VMOVUPS.Z    (AX)(R9*1), K1, Z8
	VFMADD231PS  Z4, Z5, K1, Z0
	VFMADD231PS  Z4, Z6, K1, Z1
	VFMADD231PS  Z4, Z7, K1, Z2
	VFMADD231PS  Z4, Z8, K1, Z3
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw512g4s1
	JMP          dw512g4kynext

dw512g4s2:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	MOVQ         8(R8), BX
	KMOVW        16(R8), K1
	KMOVW        20(R8), K2
	KMOVW        22(R8), K3
	VBROADCASTSS (BX)(DX*1), Z4
	VMOVUPS.Z    (AX), K2, Z5
	VMOVUPS.Z    64(AX), K3, Z6
	VPERMT2PS    Z6, Z29, Z5
	VMOVUPS.Z    (AX)(R9*1), K2, Z7
	VMOVUPS.Z    64(AX)(R9*1), K3, Z8
	VPERMT2PS    Z8, Z29, Z7
	LEAQ         (AX)(R9*2), AX
	VMOVUPS.Z    (AX), K2, Z9
	VMOVUPS.Z    64(AX), K3, Z10
	VPERMT2PS    Z10, Z29, Z9
	VMOVUPS.Z    (AX)(R9*1), K2, Z11
	VMOVUPS.Z    64(AX)(R9*1), K3, Z12
	VPERMT2PS    Z12, Z29, Z11
	VFMADD231PS  Z4, Z5, K1, Z0
	VFMADD231PS  Z4, Z7, K1, Z1
	VFMADD231PS  Z4, Z9, K1, Z2
	VFMADD231PS  Z4, Z11, K1, Z3
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw512g4s2
	JMP          dw512g4kynext

dw512g4max:
	// A max window's taps: each lane of K1 keeps the held value unless the
	// tap's is greater.
	CMPQ DW_LOOP(R12), $3
	JEQ  dw512g4m2

dw512g4m1:
	MOVQ      0(R8), AX
	ADDQ      SI, AX
	KMOVW     16(R8), K1
	VMOVUPS.Z (AX), K1, Z5
	VMOVUPS.Z (AX)(R9*1), K1, Z6
	LEAQ      (AX)(R9*2), AX
	VMOVUPS.Z (AX), K1, Z7
	VMOVUPS.Z (AX)(R9*1), K1, Z8
	VMAXPS    Z0, Z5, K1, Z0
	VMAXPS    Z1, Z6, K1, Z1
	VMAXPS    Z2, Z7, K1, Z2
	VMAXPS    Z3, Z8, K1, Z3
	ADDQ      $24, R8
	CMPQ      R8, CX
	JNE       dw512g4m1
	JMP       dw512g4kynext

dw512g4m2:
	MOVQ      0(R8), AX
	ADDQ      SI, AX
	KMOVW     16(R8), K1
	KMOVW     20(R8), K2
	KMOVW     22(R8), K3
	VMOVUPS.Z (AX), K2, Z5
	VMOVUPS.Z 64(AX), K3, Z6
	VPERMT2PS Z6, Z29, Z5
	VMOVUPS.Z (AX)(R9*1), K2, Z7
	VMOVUPS.Z 64(AX)(R9*1), K3, Z8
	VPERMT2PS Z8, Z29, Z7
	LEAQ      (AX)(R9*2), AX
	VMOVUPS.Z (AX), K2, Z9
	VMOVUPS.Z 64(AX), K3, Z10
	VPERMT2PS Z10, Z29, Z9
	VMOVUPS.Z (AX)(R9*1), K2, Z11
	VMOVUPS.Z 64(AX)(R9*1), K3, Z12
	VPERMT2PS Z12, Z29, Z11
	VMAXPS    Z0, Z5, K1, Z0
	VMAXPS    Z1, Z7, K1, Z1
	VMAXPS    Z2, Z9, K1, Z2
	VMAXPS    Z3, Z11, K1, Z3
	ADDQ      $24, R8
	CMPQ      R8, CX
	JNE       dw512g4m2

dw512g4kynext:
	ADDQ    DW_WPITCH(R12), DX
	ADDQ    DW_DHX(SP), SI
	DECQ    R11
	JNZ     dw512g4ky
	MOVQ    DW_LDD(R12), AX
	SHLQ    $2, AX
	VMAXPS  Z0, Z31, Z0
	VMAXPS  Z1, Z31, Z1
	VMAXPS  Z2, Z31, Z2
	VMAXPS  Z3, Z31, Z3
	VMOVUPS Z0, K7, (DI)
	ADDQ    AX, DI
	VMOVUPS Z1, K7, (DI)
	ADDQ    AX, DI
	VMOVUPS Z2, K7, (DI)
	ADDQ    AX, DI
	VMOVUPS Z3, K7, (DI)
	ADDQ    AX, DI
	MOVQ    DW_SH(R12), AX
	SHLQ    $2, AX
	ADDQ    AX, R10
	SUBQ    $4, R13
	JNZ     dw512row
	JMP     dw512colnext

dw512one:
	VMOVAPS Z30, Z0
	MOVQ    R10, R11
	MOVQ    R10, AX
	ADDQ    DW_KHDH(SP), AX
	MOVQ    AX, DW_KYEND(SP)
	XORQ    DX, DX

dw512ky:
	CMPQ  R11, DW_H(R12)
	JAE   dw512kynext
	MOVQ  R11, SI
	IMULQ DW_LDX(R12), SI
	SHLQ  $2, SI
	MOVQ  SP, R8
	MOVQ  DW_END(SP), CX
	CMPQ  R8, CX
	JEQ   dw512kynext
	CMPQ  DW_LOOP(R12), $1
	JEQ   dw512s2
	JGT   dw512max

dw512s1:
	MOVQ             0(R8), AX
	MOVQ             8(R8), BX
	KMOVW            16(R8), K1
	VMOVUPS.Z        (AX)(SI*1), K1, Z1
	VFMADD231PS.BCST (BX)(DX*1), Z1, K1, Z0
	ADDQ             $24, R8
	CMPQ             R8, CX
	JNE              dw512s1
	JMP              dw512kynext

dw512s2:
	MOVQ             0(R8), AX
	MOVQ             8(R8), BX
	KMOVW            16(R8), K1
	KMOVW            20(R8), K2
	KMOVW            22(R8), K3
	VMOVUPS.Z        (AX)(SI*1), K2, Z1
	VMOVUPS.Z        64(AX)(SI*1), K3, Z2
	VPERMT2PS        Z2, Z29, Z1
	VFMADD231PS.BCST (BX)(DX*1), Z1, K1, Z0
	ADDQ             $24, R8
	CMPQ             R8, CX
	JNE              dw512s2
	JMP              dw512kynext

dw512max:
	CMPQ DW_LOOP(R12), $3
	JEQ  dw512m2

dw512m1:
	MOVQ      0(R8), AX
	KMOVW     16(R8), K1
	VMOVUPS.Z (AX)(SI*1), K1, Z1
	VMAXPS    Z0, Z1, K1, Z0
	ADDQ      $24, R8
	CMPQ      R8, CX
	JNE       dw512m1
	JMP       dw512kynext

dw512m2:
	MOVQ      0(R8), AX
	KMOVW     16(R8), K1
	KMOVW     20(R8), K2
	KMOVW     22(R8), K3
	VMOVUPS.Z (AX)(SI*1), K2, Z1
	VMOVUPS.Z 64(AX)(SI*1), K3, Z2
	VPERMT2PS Z2, Z29, Z1
	VMAXPS    Z0, Z1, K1, Z0
	ADDQ      $24, R8
	CMPQ      R8, CX
	JNE       dw512m2

dw512kynext:
	ADDQ    DW_WPITCH(R12), DX
	ADDQ    DW_DH(R12), R11
	CMPQ    R11, DW_KYEND(SP)
	JNE     dw512ky
	VMAXPS  Z0, Z31, Z0
	VMOVUPS Z0, K7, (DI)
	MOVQ    DW_LDD(R12), AX
	LEAQ    (DI)(AX*4), DI
	ADDQ    DW_SH(R12), R10
	DECQ    R13
	JNZ     dw512row

dw512colnext:
	MOVQ       DW_OX(SP), R9
	ADDQ       $16, R9
	MOVQ       R9, DW_OX(SP)
	CMPQ       R9, DW_N(R12)
	JLT        dw512col
	VZEROUPPER
	RET

// func depthwiseAVX2(dst, x, w *float32, taps *ColTap, a *depthwiseArgs)
//
// depthwiseAVX512 in columns of 8. AVX2 has no opmasks: a tap's bit masks
// become VMASKMOVPS lane masks through laneBit<> and laneBitHi<> (Y9 the
// tap's lanes, Y14:Y7 a stride-2 block's loads), the multiply-add goes to
// a copy of the accumulator, and VBLENDVPS takes the copy's lanes where
// the tap applies (in a max window, VMAXPS takes the multiply-add's
// place). A column of 8 stores with VMOVUPS, a narrower one with
// VMASKMOVPS under Y11.
TEXT ·depthwiseAVX2(SB), NOSPLIT, $DW_FRAME-40
	MOVQ         a+32(FP), R12
	MOVQ         DW_KH(R12), AX
	DECQ         AX
	IMULQ        DW_DH(R12), AX
	MOVQ         AX, BX
	ADDQ         DW_DH(R12), BX
	MOVQ         BX, DW_KHDH(SP)
	MOVQ         DW_SH(R12), BX
	LEAQ         (BX)(BX*2), BX
	ADDQ         BX, AX
	MOVQ         DW_H(R12), BX
	SUBQ         AX, BX
	XORQ         AX, AX
	CMPQ         BX, AX
	CMOVQLT      AX, BX
	MOVQ         BX, DW_LIM(SP)
	MOVQ         DW_DH(R12), AX
	IMULQ        DW_LDX(R12), AX
	SHLQ         $2, AX
	MOVQ         AX, DW_DHX(SP)
	MOVQ         $0, DW_OX(SP)
	VBROADCASTSS DW_BIAS(R12), Y10
	VBROADCASTSS DW_FLOOR(R12), Y12
	VMOVDQU      laneBit<>(SB), Y15
	VMOVDQU      laneBitHi<>(SB), Y13

dw256col:
	// The column's tap entries: for each kx with lanes [a, b) =
	// [Lo−ox, Hi−ox) ∩ [0, 8) not empty, smask = 2^b − 2^a and lmask =
	// 2^(2b−1) − 2^(2a), the elements [2a, 2b−1) a stride-2 load needs.
	MOVQ  DW_OX(SP), R9
	MOVQ  taps+24(FP), SI
	MOVQ  w+16(FP), DX
	MOVQ  SP, DI
	MOVQ  DW_KW(R12), R13
	MOVQ  DW_STRIDE(R12), R8
	IMULQ R9, R8
	SHLQ  $2, R8
	ADDQ  x+8(FP), R8
	MOVQ  $8, CX

dw256tap:
	MOVQ    0(SI), AX
	SUBQ    R9, AX
	MOVQ    8(SI), BX
	SUBQ    R9, BX
	XORQ    R10, R10
	CMPQ    AX, R10
	CMOVQLT R10, AX
	CMPQ    AX, CX
	CMOVQGT CX, AX
	CMPQ    BX, CX
	CMOVQGT CX, BX
	CMPQ    AX, BX
	JGE     dw256skip
	XORQ    R10, R10
	BTSQ    BX, R10
	XORQ    R11, R11
	BTSQ    AX, R11
	SUBQ    R11, R10
	MOVL    R10, 16(DI)
	LEAQ    -1(BX)(BX*1), BX
	ADDQ    AX, AX
	XORQ    R10, R10
	BTSQ    BX, R10
	XORQ    R11, R11
	BTSQ    AX, R11
	SUBQ    R11, R10
	MOVL    R10, 20(DI)
	MOVQ    16(SI), AX
	LEAQ    (R8)(AX*4), AX
	MOVQ    AX, 0(DI)
	MOVQ    DX, 8(DI)
	ADDQ    $24, DI

dw256skip:
	ADDQ DW_WSTEP(R12), DX
	ADDQ $24, SI
	DECQ R13
	JNZ  dw256tap
	MOVQ DI, DW_END(SP)

	// How many lanes the column stores: min(W, n−ox).
	MOVQ         DW_N(R12), AX
	SUBQ         R9, AX
	MOVQ         $8, BX
	CMPQ         AX, BX
	CMOVQGT      BX, AX
	MOVQ         AX, DW_LANES(SP)
	XORQ         BX, BX
	BTSQ         AX, BX
	DECQ         BX
	VMOVD        BX, X11
	VPBROADCASTD X11, Y11
	VPAND        Y15, Y11, Y11
	VPCMPEQD     Y15, Y11, Y11
	MOVQ         dst+0(FP), DI
	LEAQ         (DI)(R9*4), DI
	MOVQ         DW_IY0(R12), R10
	MOVQ         DW_ROWS(R12), R13
	MOVQ         DW_SH(R12), R9
	IMULQ        DW_LDX(R12), R9
	SHLQ         $2, R9

dw256row:
	CMPQ R13, $4
	JLT  dw256one
	CMPQ R10, DW_LIM(SP)
	JAE  dw256one
	// Four rows whose window rows all lie inside the image: one weight
	// broadcast and one mask per tap serve four accumulator chains, the
	// k-th row's input R9 = 4·sh·ldx bytes after the (k−1)-th's.
	VMOVAPS Y10, Y0
	VMOVAPS Y10, Y1
	VMOVAPS Y10, Y2
	VMOVAPS Y10, Y3
	MOVQ    R10, SI
	IMULQ   DW_LDX(R12), SI
	SHLQ    $2, SI
	MOVQ    DW_KH(R12), R11
	XORQ    DX, DX

dw256g4ky:
	MOVQ SP, R8
	MOVQ DW_END(SP), CX
	CMPQ R8, CX
	JEQ  dw256g4kynext
	CMPQ DW_LOOP(R12), $1
	JEQ  dw256g4s2
	JGT  dw256g4max

dw256g4s1:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	MOVQ         8(R8), BX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VBROADCASTSS (BX)(DX*1), Y8
	VMASKMOVPS   (AX), Y9, Y4
	VMOVAPS      Y0, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	VMASKMOVPS   (AX)(R9*1), Y9, Y4
	VMOVAPS      Y1, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y1, Y1
	LEAQ         (AX)(R9*2), AX
	VMASKMOVPS   (AX), Y9, Y4
	VMOVAPS      Y2, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y2, Y2
	VMASKMOVPS   (AX)(R9*1), Y9, Y4
	VMOVAPS      Y3, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y3, Y3
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256g4s1
	JMP          dw256g4kynext

dw256g4s2:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	MOVQ         8(R8), BX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VPBROADCASTD 20(R8), Y7
	VPAND        Y15, Y7, Y14
	VPCMPEQD     Y15, Y14, Y14
	VPAND        Y13, Y7, Y7
	VPCMPEQD     Y13, Y7, Y7
	VBROADCASTSS (BX)(DX*1), Y8
	VMASKMOVPS   (AX), Y14, Y4
	VMASKMOVPS   32(AX), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMOVAPS      Y0, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	VMASKMOVPS   (AX)(R9*1), Y14, Y4
	VMASKMOVPS   32(AX)(R9*1), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMOVAPS      Y1, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y1, Y1
	LEAQ         (AX)(R9*2), AX
	VMASKMOVPS   (AX), Y14, Y4
	VMASKMOVPS   32(AX), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMOVAPS      Y2, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y2, Y2
	VMASKMOVPS   (AX)(R9*1), Y14, Y4
	VMASKMOVPS   32(AX)(R9*1), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMOVAPS      Y3, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y3, Y3
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256g4s2
	JMP          dw256g4kynext

dw256g4max:
	// A max window's taps: Y6 is the held value unless the tap's is
	// greater, and VBLENDVPS takes it in the tap's lanes.
	CMPQ DW_LOOP(R12), $3
	JEQ  dw256g4m2

dw256g4m1:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VMASKMOVPS   (AX), Y9, Y4
	VMAXPS       Y0, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	VMASKMOVPS   (AX)(R9*1), Y9, Y4
	VMAXPS       Y1, Y4, Y6
	VBLENDVPS    Y9, Y6, Y1, Y1
	LEAQ         (AX)(R9*2), AX
	VMASKMOVPS   (AX), Y9, Y4
	VMAXPS       Y2, Y4, Y6
	VBLENDVPS    Y9, Y6, Y2, Y2
	VMASKMOVPS   (AX)(R9*1), Y9, Y4
	VMAXPS       Y3, Y4, Y6
	VBLENDVPS    Y9, Y6, Y3, Y3
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256g4m1
	JMP          dw256g4kynext

dw256g4m2:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VPBROADCASTD 20(R8), Y7
	VPAND        Y15, Y7, Y14
	VPCMPEQD     Y15, Y14, Y14
	VPAND        Y13, Y7, Y7
	VPCMPEQD     Y13, Y7, Y7
	VMASKMOVPS   (AX), Y14, Y4
	VMASKMOVPS   32(AX), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMAXPS       Y0, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	VMASKMOVPS   (AX)(R9*1), Y14, Y4
	VMASKMOVPS   32(AX)(R9*1), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMAXPS       Y1, Y4, Y6
	VBLENDVPS    Y9, Y6, Y1, Y1
	LEAQ         (AX)(R9*2), AX
	VMASKMOVPS   (AX), Y14, Y4
	VMASKMOVPS   32(AX), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMAXPS       Y2, Y4, Y6
	VBLENDVPS    Y9, Y6, Y2, Y2
	VMASKMOVPS   (AX)(R9*1), Y14, Y4
	VMASKMOVPS   32(AX)(R9*1), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMAXPS       Y3, Y4, Y6
	VBLENDVPS    Y9, Y6, Y3, Y3
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256g4m2

dw256g4kynext:
	ADDQ    DW_WPITCH(R12), DX
	ADDQ    DW_DHX(SP), SI
	DECQ    R11
	JNZ     dw256g4ky
	MOVQ    DW_LDD(R12), AX
	SHLQ    $2, AX
	VMAXPS  Y0, Y12, Y0
	VMAXPS  Y1, Y12, Y1
	VMAXPS  Y2, Y12, Y2
	VMAXPS  Y3, Y12, Y3
	CMPQ    DW_LANES(SP), $8
	JLT     dw256g4part
	VMOVUPS Y0, (DI)
	ADDQ    AX, DI
	VMOVUPS Y1, (DI)
	ADDQ    AX, DI
	VMOVUPS Y2, (DI)
	ADDQ    AX, DI
	VMOVUPS Y3, (DI)
	ADDQ    AX, DI
	JMP     dw256g4next

dw256g4part:
	VMASKMOVPS Y0, Y11, (DI)
	ADDQ       AX, DI
	VMASKMOVPS Y1, Y11, (DI)
	ADDQ       AX, DI
	VMASKMOVPS Y2, Y11, (DI)
	ADDQ       AX, DI
	VMASKMOVPS Y3, Y11, (DI)
	ADDQ       AX, DI

dw256g4next:
	MOVQ DW_SH(R12), AX
	SHLQ $2, AX
	ADDQ AX, R10
	SUBQ $4, R13
	JNZ  dw256row
	JMP  dw256colnext

dw256one:
	VMOVAPS Y10, Y0
	MOVQ    R10, R11
	MOVQ    R10, AX
	ADDQ    DW_KHDH(SP), AX
	MOVQ    AX, DW_KYEND(SP)
	XORQ    DX, DX

dw256ky:
	CMPQ  R11, DW_H(R12)
	JAE   dw256kynext
	MOVQ  R11, SI
	IMULQ DW_LDX(R12), SI
	SHLQ  $2, SI
	MOVQ  SP, R8
	MOVQ  DW_END(SP), CX
	CMPQ  R8, CX
	JEQ   dw256kynext
	CMPQ  DW_LOOP(R12), $1
	JEQ   dw256s2
	JGT   dw256max

dw256s1:
	MOVQ         0(R8), AX
	MOVQ         8(R8), BX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VBROADCASTSS (BX)(DX*1), Y8
	VMASKMOVPS   (AX)(SI*1), Y9, Y4
	VMOVAPS      Y0, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256s1
	JMP          dw256kynext

dw256s2:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	MOVQ         8(R8), BX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VPBROADCASTD 20(R8), Y7
	VPAND        Y15, Y7, Y14
	VPCMPEQD     Y15, Y14, Y14
	VPAND        Y13, Y7, Y7
	VPCMPEQD     Y13, Y7, Y7
	VBROADCASTSS (BX)(DX*1), Y8
	VMASKMOVPS   (AX), Y14, Y4
	VMASKMOVPS   32(AX), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMOVAPS      Y0, Y6
	VFMADD231PS  Y8, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256s2
	JMP          dw256kynext

dw256max:
	CMPQ DW_LOOP(R12), $3
	JEQ  dw256m2

dw256m1:
	MOVQ         0(R8), AX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VMASKMOVPS   (AX)(SI*1), Y9, Y4
	VMAXPS       Y0, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256m1
	JMP          dw256kynext

dw256m2:
	MOVQ         0(R8), AX
	ADDQ         SI, AX
	VPBROADCASTD 16(R8), Y9
	VPAND        Y15, Y9, Y9
	VPCMPEQD     Y15, Y9, Y9
	VPBROADCASTD 20(R8), Y7
	VPAND        Y15, Y7, Y14
	VPCMPEQD     Y15, Y14, Y14
	VPAND        Y13, Y7, Y7
	VPCMPEQD     Y13, Y7, Y7
	VMASKMOVPS   (AX), Y14, Y4
	VMASKMOVPS   32(AX), Y7, Y5
	VSHUFPS      $0x88, Y5, Y4, Y4
	VPERMPD      $0xD8, Y4, Y4
	VMAXPS       Y0, Y4, Y6
	VBLENDVPS    Y9, Y6, Y0, Y0
	ADDQ         $24, R8
	CMPQ         R8, CX
	JNE          dw256m2

dw256kynext:
	ADDQ    DW_WPITCH(R12), DX
	ADDQ    DW_DH(R12), R11
	CMPQ    R11, DW_KYEND(SP)
	JNE     dw256ky
	VMAXPS  Y0, Y12, Y0
	CMPQ    DW_LANES(SP), $8
	JLT     dw256part
	VMOVUPS Y0, (DI)
	JMP     dw256next

dw256part:
	VMASKMOVPS Y0, Y11, (DI)

dw256next:
	MOVQ DW_LDD(R12), AX
	LEAQ (DI)(AX*4), DI
	ADDQ DW_SH(R12), R10
	DECQ R13
	JNZ  dw256row

dw256colnext:
	MOVQ       DW_OX(SP), R9
	ADDQ       $8, R9
	MOVQ       R9, DW_OX(SP)
	CMPQ       R9, DW_N(R12)
	JLT        dw256col
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
