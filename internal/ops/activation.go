package ops

import (
	"math"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Elementwise activations. Each is also available fused into Conv/Dense via
// the "activation" attribute (set by the fusion pass); the standalone
// kernels below serve unfused graphs.
func init() {
	Register(NewOverwritingKernel("relu.direct", "Relu", nil, runRelu))
	Register(NewOverwritingKernel("relu6.direct", "Relu6", nil, runRelu6))
	Register(NewOverwritingKernel("leakyrelu.direct", "LeakyRelu", nil, runLeakyRelu))
	Register(NewOverwritingKernel("sigmoid.direct", "Sigmoid", nil, runSigmoid))
}

func runRelu(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	gemm.ActivateRow(out[0].Data(), in[0].Data(), gemm.ActReLU, 0)
	return nil
}

func runRelu6(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	gemm.ActivateRow(out[0].Data(), in[0].Data(), gemm.ActReLU6, 0)
	return nil
}

func runLeakyRelu(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	alpha := float32(n.Attrs.Float("alpha", 0.01))
	gemm.ActivateRow(out[0].Data(), in[0].Data(), gemm.ActLeakyReLU, alpha)
	return nil
}

func runSigmoid(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	x, y := in[0].Data(), out[0].Data()
	for i, v := range x {
		y[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return nil
}
