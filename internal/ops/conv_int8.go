package ops

import (
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/quant"
	"orpheus/internal/tensor"
)

// conv.im2col_int8 — quantized implicit-GEMM convolution.
//
// The structure mirrors conv.im2col exactly — per-group strided batched
// GEMM over a virtual B packed straight from the NCHW input — but the
// arithmetic runs on the int8 tier: weights are quantized per output
// channel at first use (symmetric, |q| ≤ quant.QMaxGemm) and cached
// prepacked in the plan's ConstCache; activations are quantized to uint8
// per image into kernel-private scratch (never a graph tensor) and the
// pack walk interleaves bytes from it a k-quad at a time — a kh·kw-fold
// saving over quantizing inside the walk, where each input pixel is
// revisited once per kernel tap; the int32→fp32 requantize, zero-point
// compensation, bias and activation all ride the GEMM tile-store
// epilogue.
//
// The kernel registers as quantized: policies only select it when the
// plan opted into int8 execution, and the equivalence tests hold it to a
// quantization tolerance instead of fp32 bit-closeness.
func init() {
	RegisterQuantized(NewOverwritingKernel("conv.im2col_int8", "Conv", supportsConvInt8, runConvIm2colInt8))
}

// maxInt8K bounds the reduction depth of an int8 GEMM so the int32
// accumulator is exact: |Σ a·(b−z)| ≤ K·63·255, and 2^17·63·255 < 2^31.
// Real model layers sit orders of magnitude below this.
const maxInt8K = 1 << 17

func supportsConvInt8(n *graph.Node) bool {
	p, err := resolveConv(n)
	if err != nil {
		return false
	}
	if len(n.Inputs) < 2 || !n.Inputs[1].IsConst() {
		return false
	}
	// Depthwise convolutions have K = kh*kw per group — far too little
	// arithmetic per packed byte for the GEMM tier to pay off.
	kdim := (p.cin / p.groups) * p.kh * p.kw
	return p.layout == "" && !p.isDepthwise() && kdim <= maxInt8K
}

// int8ConvWeights returns the node's cached quantized weight panels,
// building them on first use: per-output-channel symmetric quantization
// over all cout rows, then one prepacked A-panel buffer per group
// (PackedAInt8Size(coutG, kdim) bytes each, back to back).
func int8ConvWeights(ctx *Ctx, n *graph.Node, w []float32, groups, coutG, kdim int) *Int8Weights {
	if wq := ctx.CacheInt8("conv.im2col_int8/pw", n); wq != nil {
		return wq
	}
	rows := groups * coutG
	data := make([]int8, rows*kdim)
	scales := make([]float32, rows)
	quant.QuantizeRowsInto(data, scales, w, rows, kdim, quant.QMaxGemm)
	sums := make([]int32, rows)
	gemm.RowSumsInt8(sums, data, rows, kdim)
	per := gemm.PackedAInt8Size(coutG, kdim)
	packed := make([]int8, groups*per)
	for g := 0; g < groups; g++ {
		gemm.PrepackAInt8Into(packed[g*per:], data[g*coutG*kdim:(g+1)*coutG*kdim], coutG, kdim)
	}
	wq := &Int8Weights{Packed: packed, Scales: scales, RowSums: sums}
	ctx.PutCacheInt8("conv.im2col_int8/pw", n, wq)
	return wq
}

func runConvIm2colInt8(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolveConvRT(n, in)
	if err != nil {
		return err
	}
	x := in[0].Data()
	w := in[1].Data()
	var bias []float32
	if p.hasBias {
		bias = in[2].Data()
	}
	y := out[0].Data()

	coutG := p.cout / p.groups
	kdim := (p.cin / p.groups) * p.kh * p.kw
	cols := p.oh * p.ow
	act := gemmActivation(p.activation)

	wq := int8ConvWeights(ctx, n, w, p.groups, coutG, kdim)
	perGroup := gemm.PackedAInt8Size(coutG, kdim)

	src := &ctx.convSrc8
	src.quantize(x, &p)
	for g := 0; g < p.groups; g++ {
		src.chan0 = g * (p.cin / p.groups)
		var bg []float32
		if bias != nil {
			bg = bias[g*coutG : (g+1)*coutG]
		}
		ctx.GEMM8(gemm.CallInt8{
			PackedA: wq.Packed[g*perGroup : (g+1)*perGroup],
			B:       src, C: y[g*coutG*cols:],
			M: coutG, N: cols, K: kdim,
			Batch: p.n, StrideC: p.cout * cols,
			ScaleA: wq.Scales[g*coutG:], RowSum: wq.RowSums[g*coutG:],
			BScale: src.scales, BZero: src.zeros,
			BiasRow: bg, Act: act, Alpha: p.alpha})
	}
	return nil
}

// quantRange derives the asymmetric uint8 parameters for values in
// [lo, hi]: the range is widened to include zero so fp32 0 (implicit
// padding) quantizes exactly to the zero point, a degenerate range maps
// to (scale 1, zero 0), and the zero point is clamped to [0, 255].
func quantRange(lo, hi float32) (scale float32, zero int32) {
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		return 1, 0
	}
	scale = (hi - lo) / 255
	z := int32(-lo/scale + 0.5)
	if z < 0 {
		z = 0
	} else if z > 255 {
		z = 255
	}
	return scale, z
}

func growF32(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU8(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

// convPackSrc8 is the quantizing counterpart of convPackSrc: a
// gemm.PackSrc8 that packs receptive-field bytes from a uint8 copy of
// the NCHW input built once per conv call. Quantizing inside the pack
// walk would redo the float math once per kernel tap (~9x for a 3x3),
// which on small-K layers costs more than the int8 GEMM itself; a bulk
// vectorised pre-pass makes the walk pure byte moves. The copy carries the
// convolution's padding as a border of the image's zero-point byte —
// which dequantizes to exactly zero after compensation — so every tap of
// every output pixel is an in-bounds read and the walk has no padding
// branch. Read-only during a call, so pool workers may pack panels
// concurrently.
type convPackSrc8 struct {
	convGeo

	// q8 is the quantized batch input, NCHW over padded hp×wp planes;
	// stage holds one unpadded image between the bulk quantize and its
	// padded copy into q8. scales/zeros are the per-image parameters the
	// requantize epilogue needs.
	q8, stage []byte
	scales    []float32
	zeros     []int32
}

// quantize scans each image of the batch, derives its quantization
// parameters and converts it to uint8 in q8, padded per p. The buffers
// are reused across calls, so the steady state allocates nothing.
func (s *convPackSrc8) quantize(x []float32, p *convParams) {
	s.set(p)
	s.scales = growF32(s.scales, p.n)
	s.zeros = growI32(s.zeros, p.n)
	stride, pstride := p.cin*p.h*p.w, p.cin*s.hp*s.wp
	s.q8 = growU8(s.q8, p.n*pstride)
	padded := pstride != stride
	if padded {
		s.stage = growU8(s.stage, stride)
	}
	for img := 0; img < p.n; img++ {
		xi := x[img*stride : (img+1)*stride]
		lo, hi := gemm.MinMaxF32(xi)
		scale, zero := quantRange(lo, hi)
		s.scales[img] = scale
		s.zeros[img] = zero
		qi := s.q8[img*pstride : (img+1)*pstride]
		if !padded {
			gemm.QuantizeU8(qi, xi, 1/scale, float32(zero)+0.5)
			continue
		}
		gemm.QuantizeU8(s.stage, xi, 1/scale, float32(zero)+0.5)
		padPlanes(qi, s.stage, p.cin, p, byte(zero))
	}
}

// fill sets every element of b to v.
func fill[T byte | float32](b []T, v T) {
	if len(b) == 0 {
		return
	}
	b[0] = v
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// PackPanel8 implements gemm.PackSrc8 a k-quad at a time: the panel's rows
// decode to padded-plane taps once, and for each quad one flat walk
// carries the columns through output pixels and strips together, moving
// each stretch that stays within one output row and one strip with a
// single gemm.InterleaveQuads straight from the padded planes. Every
// coordinate is carried incrementally; the walk divides only at panel
// entry.
func (s *convPackSrc8) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	kcq := (kc + 3) >> 2
	q8 := s.q8[(img*s.cin+s.chan0)*s.hp*s.wp:]
	var tap [gemm.MaxPanelK + 3]int
	s.taps(tap[:kc], pp)
	for t := kc; t < 4*kcq; t++ {
		tap[t] = tap[0] // any in-bounds tap: the rows past kc are zeroed below
	}
	oy0 := jj / s.ow
	ox0 := jj - oy0*s.ow
	rowStep := s.sh * s.wp
	for q := 0; q < kcq; q++ {
		t := tap[4*q : 4*q+4]
		row := oy0 * rowStep // source offset of the current output row
		ox, jl := ox0, 0
		d := dst[q*nr*4:] // the quad's columns in the current strip
		for j := 0; j < nc; {
			n := min(s.ow-ox, nr-jl, nc-j)
			at := row + ox*s.sw
			gemm.InterleaveQuads(d[jl*4:], q8[t[0]+at:], q8[t[1]+at:], q8[t[2]+at:], q8[t[3]+at:], n, s.sw)
			j += n
			if ox += n; ox == s.ow {
				ox = 0
				row += rowStep
			}
			if jl += n; jl == nr && j < nc {
				jl = 0
				d = d[kcq*nr*4:]
			}
		}
	}
	if tail := kc & 3; tail != 0 {
		// The last quad's rows beyond kc multiply A's zero k-padding; the
		// contract still wants them zero.
		for j := 0; j < nc; j += nr {
			last := dst[((j/nr)*kcq+kcq-1)*nr*4:]
			for jl := 0; jl < min(nr, nc-j); jl++ {
				clear(last[jl*4+tail : jl*4+4])
			}
		}
	}
	zeroPadCols(dst, kcq, nr, nc)
}

// zeroPadCols clears the columns beyond nc of a panel's last strip —
// geometric padding whose products are discarded — per the PackSrc8
// contract.
func zeroPadCols(dst []byte, kcq, nr, nc int) {
	jl := nc % nr
	if jl == 0 {
		return
	}
	last := dst[(nc/nr)*kcq*nr*4:]
	for q := 0; q < kcq; q++ {
		clear(last[q*nr*4+jl*4 : (q+1)*nr*4])
	}
}
