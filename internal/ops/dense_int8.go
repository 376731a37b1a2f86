package ops

import (
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// dense.gemm_int8 — quantized fully connected layer.
//
// A dense layer is a 1×1 convolution over one-pixel images: Y[N,M] =
// X[N,K]·Wᵀ is N images of K channels convolved with M filters of size
// 1×1, and image i's M outputs land at Y[i*M:], Y's row-major layout. So
// the kernel runs conv.im2col_int8's body on that geometry: W quantizes
// per output feature into the conv weight panels, and each sample, being
// one image, quantizes with its own parameters.
func init() {
	RegisterQuantized(newPrepackingKernel("dense.gemm_int8", "Dense", supportsDenseInt8, prepackDenseInt8, runDenseGemmInt8))
}

func supportsDenseInt8(n *graph.Node) bool {
	if len(n.Inputs) < 2 || !n.Inputs[1].IsConst() {
		return false
	}
	ws := n.Inputs[1].Shape
	return len(ws) == 2 && ws[1] <= maxInt8K
}

// denseConv returns the 1×1 convolution geometry of dense node n over a
// batch of samples: W [M, K] is M filters of K channels.
func denseConv(n *graph.Node, batch int) convParams {
	ws := n.Inputs[1].Shape // [M, K], checked by shape inference
	return convParams{
		n: batch, cin: ws[1], h: 1, w: 1,
		cout: ws[0], kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1,
		groups: 1, oh: 1, ow: 1,
		hasBias:    len(n.Inputs) == 3,
		activation: n.Attrs.Str("activation", ""),
		alpha:      float32(n.Attrs.Float("alpha", 0.01)),
	}
}

// prepackDenseInt8 is dense.gemm_int8's Prepacker hook.
func prepackDenseInt8(ctx *Ctx, n *graph.Node, w []float32) error {
	p := denseConv(n, 1)
	int8ConvWeights(ctx, n, w, &p)
	return nil
}

func runDenseGemmInt8(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p := denseConv(n, in[0].Dim(0))
	var bias []float32
	if p.hasBias {
		bias = in[2].Data()
	}
	convInt8(ctx, n, &p, in[0].Data(), in[1].Data(), bias, out[0].Data())
	return nil
}
