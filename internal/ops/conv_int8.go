package ops

import (
	"math"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/quant"
	"orpheus/internal/tensor"
)

// conv.im2col_int8 — quantized implicit-GEMM convolution.
//
// The structure mirrors conv.im2col exactly — per-group strided batched
// GEMM over a virtual B packed straight from the NCHW input, by the same
// walk — but the arithmetic runs on the int8 tier. Weights are quantized
// per output channel (symmetric, |q| ≤ quant.QMaxGemm) and cached
// prepacked in the plan's ConstCache when runtime.Compile calls the
// kernel's Prepack (on the first run outside a plan); the plan then
// releases the fp32 original, which no run reads. Activations are
// quantized to uint8 per image into kernel-private scratch (never a graph
// tensor) and laid out as padded planes of channel-quad words: word (cq,
// y, x) of a group holds its channels 4cq … 4cq+3 at pixel (y, x), the
// group's channel count padded to a multiple of 4 with the zero-point
// byte. A k-quad of the int8 B layout is then one word, so the weights' K
// is ordered k' = ((cq·kh + ky)·kw + kx)·4 + t (channel 4cq+t, zero
// weights for padded channels) and an int8 panel of kc rows is the fp32
// walk's panel of kc/4 word rows. Integer accumulation is exact, so the
// reorder changes no output bit. The int32→fp32 requantize, zero-point
// compensation, bias and activation all ride the GEMM tile-store epilogue.
//
// The kernel registers as quantized: policies only select it when the
// plan opted into int8 execution, and the equivalence tests hold it to a
// quantization tolerance instead of fp32 bit-closeness.
func init() {
	RegisterQuantized(newPrepackingKernel("conv.im2col_int8", "Conv", supportsConvInt8, prepackConvInt8, runConvIm2colInt8))
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

// quadK is the reduction depth of p's int8 GEMM: the group's channels
// padded to whole quads, times the kernel taps. It is a multiple of 4, so
// every panel of the call starts and ends on a k-quad.
func quadK(p *convParams) int {
	return ((p.cin/p.groups + 3) &^ 3) * p.kh * p.kw
}

// int8ConvWeights returns the node's cached quantized weight panels,
// building them from w on a miss: per-output-channel symmetric quantization
// of each row into a kdim scratch row, scattered into the channel-quad K
// order (scales and row sums do not depend on the order), then one
// prepacked A-panel buffer per group (PackedAInt8Size(coutG, quadK) bytes
// each, back to back).
func int8ConvWeights(ctx *Ctx, n *graph.Node, w []float32, p *convParams) *Int8Weights {
	if wq := ctx.CacheInt8("conv.im2col_int8/pw", n); wq != nil {
		return wq
	}
	cg, khw, kq := p.cin/p.groups, p.kh*p.kw, quadK(p)
	kdim, coutG := cg*khw, p.cout/p.groups
	row := make([]int8, kdim)
	data := make([]int8, p.cout*kq)
	scales := make([]float32, p.cout)
	for r := 0; r < p.cout; r++ {
		quant.QuantizeRowsInto(row, scales[r:], w[r*kdim:], 1, kdim, quant.QMaxGemm)
		dr := data[r*kq : (r+1)*kq]
		for c := 0; c < cg; c++ {
			for k, v := range row[c*khw : (c+1)*khw] {
				dr[((c>>2)*khw+k)*4+c&3] = v
			}
		}
	}
	sums := make([]int32, p.cout)
	gemm.RowSumsInt8(sums, data, p.cout, kq)
	per := gemm.PackedAInt8Size(coutG, kq)
	packed := make([]int8, p.groups*per)
	for g := 0; g < p.groups; g++ {
		gemm.PrepackAInt8Into(packed[g*per:], data[g*coutG*kq:(g+1)*coutG*kq], coutG, kq)
	}
	wq := &Int8Weights{Packed: packed, Scales: scales, RowSums: sums}
	ctx.PutCacheInt8("conv.im2col_int8/pw", n, wq)
	return wq
}

// prepackConvInt8 is conv.im2col_int8's Prepacker hook.
func prepackConvInt8(ctx *Ctx, n *graph.Node, w []float32) error {
	p, err := resolveConv(n)
	if err != nil {
		return err
	}
	int8ConvWeights(ctx, n, w, &p)
	return nil
}

func runConvIm2colInt8(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolveConvRT(n, in)
	if err != nil {
		return err
	}
	x := in[0].Data()
	var bias []float32
	if p.hasBias {
		bias = in[2].Data()
	}
	y := out[0].Data()

	coutG := p.cout / p.groups
	kq := quadK(&p)
	cols := p.oh * p.ow
	act := gemmActivation(p.activation)

	wq := int8ConvWeights(ctx, n, in[1].Data(), &p)
	perGroup := gemm.PackedAInt8Size(coutG, kq)

	src := &ctx.convSrc8
	src.quantize(x, &p)
	for g := 0; g < p.groups; g++ {
		src.chan0 = g * src.cin / p.groups
		var bg []float32
		if bias != nil {
			bg = bias[g*coutG : (g+1)*coutG]
		}
		ctx.GEMM8(gemm.CallInt8{
			PackedA: wq.Packed[g*perGroup : (g+1)*perGroup],
			B:       src, C: y[g*coutG*cols:],
			M: coutG, N: cols, K: kq,
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
// gemm.PackSrc8 that packs from channel-quad word planes of the batch,
// built once per conv call. Quantizing inside the pack walk would redo the
// float math once per kernel tap (~9x for a 3x3), which on small-K layers
// costs more than the int8 GEMM itself; a bulk vectorised pre-pass makes
// the walk pure moves. The planes carry the convolution's padding as a
// border of the image's zero-point byte — which dequantizes to exactly
// zero after compensation — so the fp32 walk's in-bounds contract holds
// as is. Read-only during a call, so pool workers may pack panels
// concurrently.
type convPackSrc8 struct {
	// convPackSrc walks the word planes, held in pad: cin counts the
	// batch's channel quads per image, chan0 selects a group's first.
	convPackSrc

	// stage holds one unpadded quantized image between the bulk quantize
	// and its interleave into the planes, then one row of its zero point.
	// scales/zeros are the per-image parameters the requantize epilogue
	// needs.
	stage  []byte
	scales []float32
	zeros  []int32
}

// quantize scans each image of the batch, derives its quantization
// parameters, converts it to uint8 and interleaves it into padded
// channel-quad word planes: each interior row is one gemm.InterleaveQuads
// of four channel rows (the zero-point row past a group's last channel),
// each border word the zero point in all four bytes. The buffers are
// reused across calls, so the steady state allocates nothing.
func (s *convPackSrc8) quantize(x []float32, p *convParams) {
	s.set(p)
	cg := p.cin / p.groups
	cq := (cg + 3) / 4
	s.cin = p.groups * cq
	stride, pstride := p.cin*p.h*p.w, s.cin*s.hp*s.wp
	s.pad = growF32(s.pad, p.n*pstride)
	s.x = s.pad
	s.stage = growU8(s.stage, stride+p.w)
	zrow := s.stage[stride:]
	s.scales = growF32(s.scales, p.n)
	s.zeros = growI32(s.zeros, p.n)
	for img := 0; img < p.n; img++ {
		xi := x[img*stride : (img+1)*stride]
		lo, hi := gemm.MinMaxF32(xi)
		scale, zero := quantRange(lo, hi)
		s.scales[img], s.zeros[img] = scale, zero
		gemm.QuantizeU8(s.stage, xi, 1/scale, float32(zero)+0.5)
		fill(zrow, byte(zero))
		border := math.Float32frombits(uint32(zero) * 0x01010101)
		padPlanes(s.pad[img*pstride:], s.cin, p, border, func(d []float32, c, y int) {
			var r [4][]byte
			g, q := c/cq, c%cq
			for t := range r {
				r[t] = zrow
				if ch := 4*q + t; ch < cg {
					r[t] = s.stage[((g*cg+ch)*p.h+y)*p.w:]
				}
			}
			gemm.InterleaveQuads(quadBytes(d), r[0], r[1], r[2], r[3], p.w)
		})
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

// PackPanel8 implements gemm.PackSrc8 as convPackSrc.PackPanel over the
// word planes: k-quad q of the panel is word row q. pp and kc must be
// multiples of 4, as every panel of a quadK-deep call is.
func (s *convPackSrc8) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	s.PackPanel(words(dst), img, pp>>2, jj, kc>>2, nc, nr)
}
