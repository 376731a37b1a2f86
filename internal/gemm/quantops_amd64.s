//go:build !noasm

#include "textflag.h"

// func minMaxF32AVX2(v *float32, n int64) (lo, hi float32)
//
// 8-lane running min/max over n elements (n a positive multiple of 8;
// the Go wrapper handles tails), then a horizontal reduce of each.
TEXT ·minMaxF32AVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX

	VBROADCASTSS (SI), Y0   // running min
	VMOVAPS      Y0, Y1     // running max

mmloop:
	VMOVUPS (SI), Y2
	VMINPS  Y2, Y0, Y0
	VMAXPS  Y2, Y1, Y1
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     mmloop

	// Horizontal reduce: fold high 128, then high pair, then element 1.
	VEXTRACTF128 $1, Y0, X2
	VMINPS       X2, X0, X0
	VSHUFPS      $0xEE, X0, X0, X2
	VMINPS       X2, X0, X0
	VSHUFPS      $0x55, X0, X0, X2
	VMINPS       X2, X0, X0

	VEXTRACTF128 $1, Y1, X2
	VMAXPS       X2, X1, X1
	VSHUFPS      $0xEE, X1, X1, X2
	VMAXPS       X2, X1, X1
	VSHUFPS      $0x55, X1, X1, X2
	VMAXPS       X2, X1, X1

	VMOVSS X0, lo+16(FP)
	VMOVSS X1, hi+20(FP)
	VZEROUPPER
	RET

// func quantizeU8AVX2(dst *byte, src *float32, n int64, inv, zf float32)
//
// dst[i] = clamp(trunc(src[i]*inv + zf), 0, 255) for n elements (n a
// positive multiple of 32; the Go wrapper handles tails). Four 8-float
// blocks are scaled, truncated with VCVTTPS2DQ (matching Go's int32
// conversion), clamped for free by the signed dword→word and unsigned
// word→byte pack saturations, and reordered to memory order with one
// VPERMD — 32 bytes stored per iteration.
TEXT ·quantizeU8AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

	VBROADCASTSS inv+24(FP), Y6
	VBROADCASTSS zf+28(FP), Y7
	VMOVDQU      quantPerm<>(SB), Y5

qloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3

	VMULPS Y6, Y0, Y0
	VADDPS Y7, Y0, Y0
	VMULPS Y6, Y1, Y1
	VADDPS Y7, Y1, Y1
	VMULPS Y6, Y2, Y2
	VADDPS Y7, Y2, Y2
	VMULPS Y6, Y3, Y3
	VADDPS Y7, Y3, Y3

	VCVTTPS2DQ Y0, Y0
	VCVTTPS2DQ Y1, Y1
	VCVTTPS2DQ Y2, Y2
	VCVTTPS2DQ Y3, Y3

	VPACKSSDW Y1, Y0, Y0    // int16 [a0-3 b0-3 | a4-7 b4-7]
	VPACKSSDW Y3, Y2, Y2    // int16 [c0-3 d0-3 | c4-7 d4-7]
	VPACKUSWB Y2, Y0, Y0    // u8 dwords [a03 b03 c03 d03 | a47 b47 c47 d47]
	VPERMD    Y0, Y5, Y0    // -> [a03 a47 b03 b47 c03 c47 d03 d47]
	VMOVDQU   Y0, (DI)

	ADDQ $128, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JNZ  qloop

	VZEROUPPER
	RET

DATA quantPerm<>+0(SB)/4, $0
DATA quantPerm<>+4(SB)/4, $4
DATA quantPerm<>+8(SB)/4, $1
DATA quantPerm<>+12(SB)/4, $5
DATA quantPerm<>+16(SB)/4, $2
DATA quantPerm<>+20(SB)/4, $6
DATA quantPerm<>+24(SB)/4, $3
DATA quantPerm<>+28(SB)/4, $7
GLOBL quantPerm<>(SB), RODATA, $32

// func interleaveQuadsAVX2(dst, r0, r1, r2, r3 *byte, n int64)
//
// dst[4i+t] = r_t[i] for n ≥ 1 columns: the k-quad transpose of the int8
// B layout. Blocks of 16, 8 and 4 columns are two levels of unpack —
// bytes of (r0,r1) and (r2,r3) to words, then those words to dwords, each
// dword one column's quad — and the last 0–3 columns move bytewise. VEX
// 128-bit forms only, so no upper state is dirtied.
TEXT ·interleaveQuadsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r0+8(FP), R8
	MOVQ r1+16(FP), R9
	MOVQ r2+24(FP), R10
	MOVQ r3+32(FP), R11
	MOVQ n+40(FP), CX

	CMPQ CX, $16
	JLT  iq8

iq16:
	VMOVDQU (R8), X0
	VMOVDQU (R9), X1
	VMOVDQU (R10), X2
	VMOVDQU (R11), X3
	VPUNPCKLBW X1, X0, X4   // r0/r1 words, columns 0-7
	VPUNPCKHBW X1, X0, X5   // columns 8-15
	VPUNPCKLBW X3, X2, X6   // r2/r3 words, columns 0-7
	VPUNPCKHBW X3, X2, X7   // columns 8-15
	VPUNPCKLWD X6, X4, X0   // quads of columns 0-3
	VPUNPCKHWD X6, X4, X1   // 4-7
	VPUNPCKLWD X7, X5, X2   // 8-11
	VPUNPCKHWD X7, X5, X3   // 12-15
	VMOVDQU X0, (DI)
	VMOVDQU X1, 16(DI)
	VMOVDQU X2, 32(DI)
	VMOVDQU X3, 48(DI)
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $64, DI
	SUBQ $16, CX
	CMPQ CX, $16
	JGE  iq16

iq8:
	CMPQ CX, $8
	JLT  iq4
	VMOVQ (R8), X0
	VMOVQ (R9), X1
	VMOVQ (R10), X2
	VMOVQ (R11), X3
	VPUNPCKLBW X1, X0, X4
	VPUNPCKLBW X3, X2, X6
	VPUNPCKLWD X6, X4, X0
	VPUNPCKHWD X6, X4, X1
	VMOVDQU X0, (DI)
	VMOVDQU X1, 16(DI)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $32, DI
	SUBQ $8, CX

iq4:
	CMPQ CX, $4
	JLT  iq1
	VMOVD (R8), X0
	VMOVD (R9), X1
	VMOVD (R10), X2
	VMOVD (R11), X3
	VPUNPCKLBW X1, X0, X4
	VPUNPCKLBW X3, X2, X6
	VPUNPCKLWD X6, X4, X0
	VMOVDQU X0, (DI)
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $16, DI
	SUBQ $4, CX

iq1:
	TESTQ CX, CX
	JZ    iqdone

iqbyte:
	MOVB (R8), AX
	MOVB AX, (DI)
	MOVB (R9), AX
	MOVB AX, 1(DI)
	MOVB (R10), AX
	MOVB AX, 2(DI)
	MOVB (R11), AX
	MOVB AX, 3(DI)
	INCQ R8
	INCQ R9
	INCQ R10
	INCQ R11
	ADDQ $4, DI
	DECQ CX
	JNZ  iqbyte

iqdone:
	RET
