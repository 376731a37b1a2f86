package ops

import (
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Depthwise convolution kernels. MobileNetV1's performance hinges on how a
// framework executes groups == Cin convolutions:
//
//   - conv.depthwise: a dedicated per-channel row walk — the efficient
//     path Orpheus uses.
//   - conv.group_im2col: the pathological treatment the paper blames for
//     PyTorch's MobileNetV1 collapse — every group (one channel!) gets its
//     own im2col unfold plus a 1-row GEMM, so per-call overhead dominates.
//
// conv.depthwise makes one gemm.DepthwiseRow call per (image, channel)
// plane: each output vector of a row is seeded with the channel's bias,
// takes every in-image tap (ky, kx) as one fused multiply-add in a
// register, in (ky, kx) order, and is stored once through the activation.
// Border vectors skip exactly the taps that fall outside the image, by
// lane masks built from the layer's ColTap table, so every output is the
// same sum in the same order as the scalar walk this replaced
// (conv_depthwise_test.go keeps that walk as the oracle: bit for bit
// without the FMA assembly, 1e-5 with it).
//
// A depth multiplier (cout = m·cin) only changes which input plane an
// output channel reads: oc/m.
func init() {
	Register(NewOverwritingKernel("conv.depthwise", "Conv", supportsDepthwise, runConvDepthwise))
	Register(NewKernel("conv.group_im2col", "Conv", supportsGroupIm2col, runConvGroupIm2col))
}

func supportsDepthwise(n *graph.Node) bool {
	p, err := resolveConv(n)
	if err != nil {
		return false
	}
	return p.layout == "" && p.groups > 1 && p.groups == p.cin
}

func runConvDepthwise(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolveConvRT(n, in)
	if err != nil {
		return err
	}
	x := in[0].Data()
	w := in[1].Data() // [cout][1][kh][kw]
	var bias []float32
	if p.hasBias {
		bias = in[2].Data()
	}
	y := out[0].Data()
	mult := p.cout / p.cin
	dw := gemm.NewDepthwise(gemm.Window{H: p.h, W: p.w, OH: p.oh, OW: p.ow, KH: p.kh, KW: p.kw,
		SH: p.sh, SW: p.sw, DH: p.dh, DW: p.dw, PadT: p.padT, PadL: p.padL}, gemmActivation(p.activation), p.alpha)
	for b := 0; b < p.n; b++ {
		for oc := 0; oc < p.cout; oc++ {
			src := x[(b*p.cin+oc/mult)*p.h*p.w:][:p.h*p.w]
			dst := y[(b*p.cout+oc)*p.oh*p.ow:][:p.oh*p.ow]
			var bv float32
			if bias != nil {
				bv = bias[oc]
			}
			gemm.DepthwiseRow(dst, p.ow, src, p.w, w[oc*p.kh*p.kw:][:p.kh*p.kw], bv, &dw, 0, p.oh)
		}
	}
	return nil
}

func supportsGroupIm2col(n *graph.Node) bool {
	p, err := resolveConv(n)
	if err != nil {
		return false
	}
	return p.layout == "" && p.groups > 1
}

// runConvGroupIm2col deliberately mirrors a generic grouped-conv lowering:
// per batch and per group it allocates (when scratch reuse is off) and
// fills an unfold buffer, then performs a tiny naive GEMM. Correct, but
// with per-channel overhead — the behaviour Figure 2 shows for PyTorch on
// MobileNetV1.
func runConvGroupIm2col(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	return convIm2colPerGroupNaive(ctx, n, in, out)
}

func convIm2colPerGroupNaive(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
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
	for b := 0; b < p.n; b++ {
		for g := 0; g < p.groups; g++ {
			// A fresh unfold per (batch, group): the overhead under study.
			colBuf := ctx.Scratch("conv.group_im2col/col", n, kdim*cols)
			src := x[(b*p.cin+g*cinG)*p.h*p.w:]
			tensor.Im2ColInto(colBuf, src, 1, cinG, p.h, p.w,
				p.kh, p.kw, p.sh, p.sw, p.padT, p.padL, p.dh, p.dw, p.oh, p.ow)
			wg := w[g*coutG*kdim : (g+1)*coutG*kdim]
			dst := y[(b*p.cout+g*coutG)*cols : (b*p.cout+(g+1)*coutG)*cols]
			gemm.Naive(wg, colBuf, dst, coutG, cols, kdim)
		}
	}
	if bias != nil {
		addBiasNCHW(y, bias, p.n, p.cout, cols)
	}
	applyActivation(y, p.activation, p.alpha)
	return nil
}
