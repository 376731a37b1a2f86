package ops

import (
	"math"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Binary elementwise operators (residual additions, scaling). Shapes must
// match exactly, or the second operand may be a single-element tensor
// (scalar broadcast).
func init() {
	Register(NewOverwritingKernel("add.direct", "Add", nil, runAdd))
	Register(NewOverwritingKernel("mul.direct", "Mul", nil, runMul))
}

// blockFloats is the block of elements runAdd and runMul finish at a time:
// 8 KB of output, with as much of each operand, stays in L1.
const blockFloats = 2048

// runAdd and runMul with same-shape operands go a block of blockFloats
// at a time through the gemm row helpers, so each output element is
// written and finished while it is in L1 and nothing is swept twice: an
// add is the first operand copied and gemm.AXPYRow's 1·b added to it (one
// rounding, fused or not), then the fused activation over the block; a
// product is gemm.FMARow onto −0, the one seed a·b + seed returns a·b from
// with its sign intact.
func runAdd(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	a, b, y := in[0].Data(), in[1].Data(), out[0].Data()
	// The fusion pass folds a following activation into Add regardless of
	// operand shape, so the scalar-broadcast path must apply it too.
	act, alpha := gemmActivation(n.Attrs.Str("activation", "")), float32(n.Attrs.Float("alpha", 0.01))
	if len(b) == 1 {
		s := b[0]
		for i, v := range a {
			y[i] = v + s
		}
		if act != gemm.ActNone {
			gemm.ActivateRow(y, y, act, alpha)
		}
		return nil
	}
	for i := 0; i < len(a); i += blockFloats {
		blk := y[i:min(i+blockFloats, len(a))]
		copy(blk, a[i:])
		gemm.AXPYRow(blk, 0, b[i:], 0, 1, len(blk), 1)
		if act != gemm.ActNone {
			gemm.ActivateRow(blk, blk, act, alpha)
		}
	}
	return nil
}

func runMul(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	a, b, y := in[0].Data(), in[1].Data(), out[0].Data()
	if len(b) == 1 {
		s := b[0]
		for i, v := range a {
			y[i] = v * s
		}
		return nil
	}
	for i := 0; i < len(a); i += blockFloats {
		blk := y[i:min(i+blockFloats, len(a))]
		fill(blk, float32(math.Copysign(0, -1)))
		gemm.FMARow(blk, a[i:], b[i:])
	}
	return nil
}
