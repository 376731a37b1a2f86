package ops

import (
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// NHWC execution tier for convolution. The layout-assignment pass
// (internal/passes/layout.go) rewrites eligible subgraphs to
// channel-innermost tensors; these kernels are the production paths for
// the rewritten Conv nodes:
//
//   - conv.im2col_nhwc: implicit GEMM with the receptive fields gathered
//     as the A operand (conv_implicit_nhwc.go) and the constant weights
//     prepacked once as a batch-shared B. Grouped convolution writes each
//     group's output-channel slice in place through the GEMM's Ldc window.
//   - conv.depthwise_nhwc: NHWC makes depthwise convolution vectorisable —
//     one output pixel accumulates kh*kw fused multiply-adds over
//     contiguous C-length rows (gemm.FMARow), where the NCHW form walks
//     scalars. This is the layout MobileNet-class models want.
//
// conv.direct remains the layout-aware correctness reference for both.
func init() {
	Register(NewOverwritingKernel("conv.im2col_nhwc", "Conv", supportsConvNHWC, runConvIm2colNHWC))
	Register(NewOverwritingKernel("conv.depthwise_nhwc", "Conv", supportsDepthwiseNHWC, runConvDepthwiseNHWC))
}

func supportsConvNHWC(n *graph.Node) bool {
	p, err := resolveConv(n)
	if err != nil {
		return false
	}
	return p.layout == "nhwc" && !p.isDepthwise()
}

func supportsDepthwiseNHWC(n *graph.Node) bool {
	p, err := resolveConv(n)
	if err != nil {
		return false
	}
	return p.layout == "nhwc" && !p.srcNCHW && p.isDepthwise()
}

// nhwcWeightMatrix writes group g's [kdim × coutG] NHWC weight matrix into
// wt: row kd = (ky*kw + kx)*cinG + c, column co — the transpose-and-
// permute of the NCHW [Cout, Cin/g, KH, KW] weight blob that pairs with
// convPackSrcA's row decode.
func nhwcWeightMatrix(wt, w []float32, g, cinG, coutG, kh, kw int) {
	khw := kh * kw
	for co := 0; co < coutG; co++ {
		wr := w[(g*coutG+co)*cinG*khw:]
		for c := 0; c < cinG; c++ {
			for k := 0; k < khw; k++ {
				wt[(k*cinG+c)*coutG+co] = wr[c*khw+k]
			}
		}
	}
}

// nhwcPackedWeights returns the node's cached prepacked per-group NHWC
// weight panels, building them on first use: groups consecutive buffers of
// PackedBSize(kdim, coutG) values each.
func nhwcPackedWeights(ctx *Ctx, n *graph.Node, w []float32, groups, cinG, coutG, kh, kw int) []float32 {
	if buf := ctx.Cache("conv.im2col_nhwc/pw", n); buf != nil {
		return buf
	}
	kdim := cinG * kh * kw
	per := gemm.PackedBSize(kdim, coutG)
	buf := make([]float32, groups*per)
	wt := make([]float32, kdim*coutG)
	for g := 0; g < groups; g++ {
		nhwcWeightMatrix(wt, w, g, cinG, coutG, kh, kw)
		gemm.PrepackBInto(buf[g*per:], wt, kdim, coutG)
	}
	ctx.PutCache("conv.im2col_nhwc/pw", n, buf)
	return buf
}

func runConvIm2colNHWC(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
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

	cinG := p.cin / p.groups
	coutG := p.cout / p.groups
	kdim := cinG * p.kh * p.kw
	cols := p.oh * p.ow
	act := gemmActivation(p.activation)

	packedW := nhwcPackedWeights(ctx, n, w, p.groups, cinG, coutG, p.kh, p.kw)

	// Pointwise fast path: for a 1x1 stride-1 unpadded ungrouped NHWC conv
	// the input already *is* the [n*oh*ow × cin] unfold, so the whole batch
	// collapses into one dense GEMM with no gather at all.
	if p.pointwise() && p.groups == 1 && !p.srcNCHW {
		ctx.GEMM(gemm.Call{A: x, PackedB: packedW, C: y,
			M: p.n * cols, N: p.cout, K: p.cin, Store: true,
			BiasCol: bias, Act: act, Alpha: p.alpha})
		return nil
	}

	per := gemm.PackedBSize(kdim, coutG)
	for g := 0; g < p.groups; g++ {
		// One strided call folds the whole batch: the A source resolves the
		// image index, C images start cols*cout apart, and the group's
		// columns sit g*coutG into each output row (Ldc = cout).
		ctx.convSrcA.init(x, &p, g)
		call := gemm.Call{APack: &ctx.convSrcA, PackedB: packedW[g*per : (g+1)*per], C: y[g*coutG:],
			M: cols, N: coutG, K: kdim, Ldc: p.cout, Store: true,
			Batch: p.n, StrideC: cols * p.cout,
			Act: act, Alpha: p.alpha}
		if bias != nil {
			call.BiasCol = bias[g*coutG : (g+1)*coutG]
		}
		ctx.GEMM(call)
	}
	return nil
}

// depthwiseNHWCWeights returns the node's cached channel-innermost
// depthwise weights, wn[(ky*kw + kx)*C + c] = w[c*khw + ky*kw + kx], so
// each kernel tap is one contiguous C-length multiplier row.
func depthwiseNHWCWeights(ctx *Ctx, n *graph.Node, w []float32, ch, khw int) []float32 {
	if b := ctx.Cache("conv.depthwise_nhwc/w", n); b != nil {
		return b
	}
	buf := make([]float32, ch*khw)
	for c := 0; c < ch; c++ {
		for k := 0; k < khw; k++ {
			buf[k*ch+c] = w[c*khw+k]
		}
	}
	ctx.PutCache("conv.depthwise_nhwc/w", n, buf)
	return buf
}

func runConvDepthwiseNHWC(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
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

	ch := p.cin
	wn := depthwiseNHWCWeights(ctx, n, in[1].Data(), ch, p.kh*p.kw)
	for b := 0; b < p.n; b++ {
		for oy := 0; oy < p.oh; oy++ {
			iy0 := oy*p.sh - p.padT
			for ox := 0; ox < p.ow; ox++ {
				ix0 := ox*p.sw - p.padL
				base := ((b*p.oh+oy)*p.ow + ox) * ch
				dst := y[base : base+ch]
				if bias != nil {
					copy(dst, bias)
				} else {
					for i := range dst {
						dst[i] = 0
					}
				}
				for ky := 0; ky < p.kh; ky++ {
					iy := iy0 + ky*p.dh
					if iy < 0 || iy >= p.h {
						continue
					}
					for kx := 0; kx < p.kw; kx++ {
						ix := ix0 + kx*p.dw
						if ix < 0 || ix >= p.w {
							continue
						}
						gemm.FMARow(dst, x[((b*p.h+iy)*p.w+ix)*ch:], wn[(ky*p.kw+kx)*ch:])
					}
				}
			}
		}
	}
	ctx.Sweep(y, nil, p.n*p.oh, p.ow*ch, p.activation, p.alpha)
	return nil
}
