package gemm

import "encoding/binary"

// Activation-quantization helpers for the int8 tier's pack boundary.
//
// The quantizing pack sources scan a layer input once for its range and
// then convert it to uint8 in bulk, so the im2col pack walk degenerates
// to copies: a 3x3 convolution visits every input pixel ~9 times, and
// quantizing inside the walk was measured to cost several times the int8
// GEMM itself on small-K layers. InterleaveQuads builds the 32-bit k-quad
// words those walks copy. All three dispatch to AVX2 implementations on
// amd64 and fall back to portable Go elsewhere.

// minMaxImpl / quantizeU8Impl / interleaveImpl are swapped by platform
// init functions.
var (
	minMaxImpl     = minMaxF32Go
	quantizeU8Impl = quantizeU8Go
	interleaveImpl = interleaveQuadsGo
)

// MinMaxF32 returns the minimum and maximum of v. An empty slice returns
// (0, 0). Inputs are assumed NaN-free (model activations).
func MinMaxF32(v []float32) (lo, hi float32) {
	if len(v) == 0 {
		return 0, 0
	}
	return minMaxImpl(v)
}

// QuantizeU8 converts src to asymmetric uint8 in bulk:
//
//	dst[i] = clamp(int32(src[i]*inv + zf), 0, 255)
//
// where inv is the reciprocal scale and zf is the zero point plus 0.5
// (folding round-to-nearest into the truncating conversion). dst must
// hold at least len(src) bytes. The vectorised path truncates with
// CVTTPS2DQ and clamps by pack saturation, matching the portable loop
// bit for bit on NaN-free inputs.
func QuantizeU8(dst []byte, src []float32, inv, zf float32) {
	quantizeU8Impl(dst, src, inv, zf)
}

// InterleaveQuads writes n 32-bit words, each the four bytes of one column
// of four rows:
//
//	dst[4i+t] = r_t[i]   for t in 0..3, i in 0..n-1
//
// dst must hold 4n bytes and each row n. It turns four channel rows of a
// quantized image into one row of channel-quad words, the unit the int8
// convolution's pack walk moves.
func InterleaveQuads(dst, r0, r1, r2, r3 []byte, n int) {
	if n > 0 {
		interleaveImpl(dst, r0, r1, r2, r3, n)
	}
}

// interleaveQuadsGo is the portable body: one uint32 store per column.
func interleaveQuadsGo(dst, r0, r1, r2, r3 []byte, n int) {
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(dst[4*i:],
			uint32(r0[i])|uint32(r1[i])<<8|uint32(r2[i])<<16|uint32(r3[i])<<24)
	}
}

func minMaxF32Go(v []float32) (lo, hi float32) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func quantizeU8Go(dst []byte, src []float32, inv, zf float32) {
	for i, x := range src {
		q := int32(x*inv + zf)
		if q < 0 {
			q = 0
		} else if q > 255 {
			q = 255
		}
		dst[i] = byte(q)
	}
}
