package ops

import (
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/quant"
	"orpheus/internal/tensor"
)

// dense.gemm_int8 — quantized fully connected layer.
//
// The fp32 path computes Y[N,M] = X[N,K]·Wᵀ via a cached transposed
// weight; the int8 tier instead runs the transposed product Yᵀ[M,N] =
// W·Xᵀ with TransC storing straight into Y's row-major layout. That
// orientation puts W — the constant — on the A side, so its rows quantize
// per output feature directly (no transpose, and the per-row scales are
// exactly the per-feature scales the epilogue wants), and each sample
// becomes a B column quantized with its own parameters (ColQuant).
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

// int8DenseWeights returns the node's cached quantized weight panels,
// building them from the m×k weight w on a miss.
func int8DenseWeights(ctx *Ctx, n *graph.Node, w []float32, m, k int) *Int8Weights {
	if wq := ctx.CacheInt8("dense.gemm_int8/pw", n); wq != nil {
		return wq
	}
	data := make([]int8, m*k)
	scales := make([]float32, m)
	quant.QuantizeRowsInto(data, scales, w, m, k, quant.QMaxGemm)
	sums := make([]int32, m)
	gemm.RowSumsInt8(sums, data, m, k)
	wq := &Int8Weights{Packed: gemm.PrepackAInt8(data, m, k), Scales: scales, RowSums: sums}
	ctx.PutCacheInt8("dense.gemm_int8/pw", n, wq)
	return wq
}

// prepackDenseInt8 is dense.gemm_int8's Prepacker hook.
func prepackDenseInt8(ctx *Ctx, n *graph.Node, w []float32) error {
	ws := n.Inputs[1].Shape
	int8DenseWeights(ctx, n, w, ws[0], ws[1])
	return nil
}

func runDenseGemmInt8(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	x, w := in[0], in[1]
	batch, k := x.Shape()[0], x.Shape()[1]
	m := w.Shape()[0]
	wq := int8DenseWeights(ctx, n, w.Data(), m, k)
	var bias []float32
	if len(in) == 3 {
		bias = in[2].Data()
	}
	src := &ctx.denseSrc8
	src.init(x.Data(), batch, k)
	ctx.GEMM8(gemm.CallInt8{
		PackedA: wq.Packed, B: src, C: out[0].Data(),
		M: m, N: batch, K: k,
		TransC: true, ColQuant: true,
		ScaleA: wq.Scales, RowSum: wq.RowSums,
		BScale: src.scales, BZero: src.zeros,
		BiasRow: bias,
		Act:     gemmActivation(n.Attrs.Str("activation", "")),
		Alpha:   float32(n.Attrs.Float("alpha", 0.01))})
	return nil
}

// densePackSrc8 presents the activation matrix X[N,K] as the virtual
// uint8 B of the transposed dense GEMM: B[p][j] = Q_j(X[j][p]), each
// sample column j quantized with its own parameters. init converts X to
// uint8 in one vectorised pass per sample, so the pack walk is pure moves:
// a k-quad's four rows are four consecutive bytes of one sample — one
// word — and a quad row of a strip is one word gather down the samples.
type densePackSrc8 struct {
	// ld is q8's row stride in words: K rounded up to whole quads, the
	// tail bytes zero, so the last quad reads its k padding from the row.
	ld int

	// q8 is the quantized activation matrix as k-quad words (see words);
	// scales/zeros are the per-sample parameters for the epilogue. Buffers
	// reused across calls.
	q8     []float32
	scales []float32
	zeros  []int32
}

// init derives each sample's parameters and quantizes X into q8.
func (s *densePackSrc8) init(x []float32, samples, k int) {
	s.ld = (k + 3) >> 2
	s.scales = growF32(s.scales, samples)
	s.zeros = growI32(s.zeros, samples)
	s.q8 = growF32(s.q8, samples*s.ld)
	for j := 0; j < samples; j++ {
		xj := x[j*k : (j+1)*k]
		lo, hi := gemm.MinMaxF32(xj)
		scale, zero := quantRange(lo, hi)
		s.scales[j] = scale
		s.zeros[j] = zero
		qj := quadBytes(s.q8[j*s.ld : (j+1)*s.ld])
		gemm.QuantizeU8(qj, xj, 1/scale, float32(zero)+0.5)
		clear(qj[k:])
	}
}

// PackPanel8 implements gemm.PackSrc8; img is always 0 (TransC calls are
// unbatched). pp is a multiple of 4, so quad q of column j is word
// pp/4+q of sample jj+j.
func (s *densePackSrc8) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	var tab [gemm.MaxPanelK / 4]int
	tap := tab[:(kc+3)>>2]
	for q := range tap {
		tap[q] = q
	}
	d := words(dst)
	for j := 0; j < nc; j += nr {
		gemm.GatherTaps(d[(j/nr)*len(tap)*nr:], nr, s.q8[(jj+j)*s.ld+(pp>>2):], tap, min(nr, nc-j), s.ld)
	}
	gemm.ClearEdgeCols(d, len(tap), nr, nc)
}
