package ops

import (
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Dense (fully connected) kernels.
//
//	inputs: X [N, K], W [M, K] (out×in, PyTorch convention), optional B [M]
//	output: Y [N, M] = X · Wᵀ + B
//
// dense.naive is the correctness reference; dense.gemm uses the packed
// GEMM on the transposed weight, with the packed B-panels of the
// transpose built once by its Prepacker hook (weights are graph
// constants) and cached across runs. Both write every output element, so
// neither needs a zero-filled output.
func init() {
	Register(NewOverwritingKernel("dense.naive", "Dense", nil, runDenseNaive))
	Register(newPrepackingKernel("dense.gemm", "Dense", nil, prepackDenseGemm, runDenseGemm))
}

func runDenseNaive(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	x, w := in[0], in[1]
	batch, k := x.Shape()[0], x.Shape()[1]
	m := w.Shape()[0]
	var bias []float32
	if len(in) == 3 {
		bias = in[2].Data()
	}
	xd, wd, yd := x.Data(), w.Data(), out[0].Data()
	for b := 0; b < batch; b++ {
		for j := 0; j < m; j++ {
			var acc float32
			if bias != nil {
				acc = bias[j]
			}
			row := wd[j*k : (j+1)*k]
			xr := xd[b*k : (b+1)*k]
			for p := 0; p < k; p++ {
				acc += xr[p] * row[p]
			}
			yd[b*m+j] = acc
		}
	}
	applyActivation(yd, n.Attrs.Str("activation", ""), float32(n.Attrs.Float("alpha", 0.01)))
	return nil
}

// transposeDense returns Wᵀ[K,M] for W[M,K].
func transposeDense(wd []float32, m, k int) []float32 {
	wt := make([]float32, k*m)
	for j := 0; j < m; j++ {
		for p := 0; p < k; p++ {
			wt[p*m+j] = wd[j*k+p]
		}
	}
	return wt
}

// packedDenseWeights returns the node's cached prepacked B-panels of
// Wᵀ[K,M], building them from the m×k weight w on a miss (the raw
// transpose is a local stepping stone).
func packedDenseWeights(ctx *Ctx, n *graph.Node, w []float32, m, k int) []float32 {
	if pb := ctx.Cache("dense.gemm/pwt", n); pb != nil {
		return pb
	}
	pb := gemm.PrepackB(transposeDense(w, m, k), k, m)
	ctx.PutCache("dense.gemm/pwt", n, pb)
	return pb
}

// prepackDenseGemm is dense.gemm's Prepacker hook.
func prepackDenseGemm(ctx *Ctx, n *graph.Node, w []float32) error {
	ws := n.Inputs[1].Shape // [M, K], checked by shape inference
	packedDenseWeights(ctx, n, w, ws[0], ws[1])
	return nil
}

func runDenseGemm(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	x, w := in[0], in[1]
	batch, k := x.Shape()[0], x.Shape()[1]
	m := w.Shape()[0]
	// Y[N,M] = X[N,K] · Wᵀ[K,M]. W is run-invariant, so the kernel reads
	// only the cached prepacked panels.
	pb := packedDenseWeights(ctx, n, w.Data(), m, k)
	// Bias is per output feature — a GEMM column — and the activation
	// follows it, so both ride the epilogue at tile store instead of two
	// extra sweeps over Y.
	var bias []float32
	if len(in) == 3 {
		bias = in[2].Data()
	}
	yd := out[0].Data()
	ctx.GEMM(gemm.Call{A: x.Data(), PackedB: pb, C: yd,
		M: batch, N: m, K: k, Store: true,
		BiasCol: bias,
		Act:     gemmActivation(n.Attrs.Str("activation", "")),
		Alpha:   float32(n.Attrs.Float("alpha", 0.01))})
	return nil
}
