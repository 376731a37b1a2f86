// Package quant holds the weight quantizer of the int8 execution tier:
// per-row symmetric quantization into [-QMaxGemm, QMaxGemm], the one int8
// scheme Orpheus runs. The int8 conv and dense kernels call it once, at
// plan time, and feed the result to internal/gemm's u8×s8 GEMM. Activations
// are quantized per image by the kernels themselves. The E2 experiment
// (internal/harness) measures footprint and drift on the compiled int8
// plan, so what it reports is what this scheme deploys.
package quant

import "math"

// QMaxGemm is the symmetric weight bound of the int8 GEMM tier. Weights
// are clamped to [-63, 63] (7 significant bits) rather than the full int8
// range so that every u8×s8 pair product the AVX2 VPMADDUBSW kernel forms
// stays within int16 (2·255·63 = 32130 < 32767): the saturating
// instruction can then never saturate, and the pure-Go, AVX2 and VNNI
// kernels all produce bit-identical int32 accumulators. The half-bit of
// extra weight rounding error is far below the activation quantization
// error.
const QMaxGemm = 63

// QuantizeRowsInto quantizes the rows×per float matrix w per-row symmetric
// into data (len ≥ rows*per) with one scale per row (scales len ≥ rows):
// data[r][i] = clamp(round(w[r][i]/scales[r]), ±qmax), rounding half away
// from zero, scales[r] = max|w[r]|/qmax. All-zero rows get scale 1 so they
// round-trip to zero. w must be NaN-free. Use QMaxGemm for weights
// destined for the int8 GEMM tier.
//
// Nothing branches on a weight's sign, a coin flip that a branch
// mispredicts half the time: |v| clears the sign bit, the rounding adds
// copysign(0.5, f) before truncating (for f < 0 that is −int32(0.5−f) bit
// for bit, since negation is exact), and the clamp is min/max.
func QuantizeRowsInto(data []int8, scales []float32, w []float32, rows, per int, qmax int32) {
	fq := float32(qmax)
	for r := 0; r < rows; r++ {
		row := w[r*per : (r+1)*per]
		var maxAbs float32
		for _, v := range row {
			if a := math.Float32frombits(math.Float32bits(v) &^ signBit); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / fq
		if scale == 0 {
			scale = 1
		}
		scales[r] = scale
		inv := 1 / scale
		out := data[r*per : (r+1)*per]
		for i, v := range row {
			f := v * inv
			half := math.Float32frombits(math.Float32bits(f)&signBit | math.Float32bits(0.5))
			out[i] = int8(min(max(int32(f+half), -qmax), qmax))
		}
	}
}

const signBit = 1 << 31
