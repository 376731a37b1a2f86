package ops

import (
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// conv.im2col — GEMM convolution. This is the Orpheus production path:
// the paper notes "Orpheus uses GEMM convolution, which pays off for big
// matrices". It is *implicit* GEMM: instead of materialising the unfolded
// kdim×cols column matrix and packing panels out of it, a convPackSrc
// (conv_implicit.go) packs each B panel straight from the NCHW input — or
// from its zero-bordered copy when the conv pads — so the unfold scratch
// and its extra write+read sweep over memory are gone; a pointwise conv
// takes the same gather, which then reads the input in place.
// One strided batched call covers the whole batch per group, and the
// bias add and fused activation ride the GEMM epilogue — applied at tile
// store while the tile is cache-hot — instead of two more full-tensor
// sweeps.
//
// The weight matrix is a graph constant, so its packed A-panels are built
// once, when runtime.Compile calls the kernel's Prepack (or on the first
// run outside a plan), cached in the plan-shared ConstCache; every run
// reads only those panels, so the plan releases the row-major original.
// The GEMM runs in overwrite (beta=0) mode, which both lets the runtime
// skip the arena zero-fill for this kernel and keeps repeated runs
// correct without it.
//
// conv.im2col_explicit keeps the materialised unfold: it is the
// differential reference for the implicit path and the kernel the
// torch-sim backend selects to model a framework that unfolds into a
// buffer on every call (a pointwise conv's unfold is its input's planes).
//
// Groups are handled per group with the batch folded into one strided
// call; a pure depthwise conv is better served by conv.depthwise (this
// kernel still computes it correctly, just slowly).
func init() {
	Register(newPrepackingKernel("conv.im2col", "Conv", supportsConvNCHW, prepackConvIm2col, runConvIm2col))
	Register(NewOverwritingKernel("conv.im2col_explicit", "Conv", supportsConvNCHW, runConvIm2colExplicit))
}

// supportsConvNCHW admits any valid NCHW Conv; NHWC nodes go to the
// layout-aware tier (conv.im2col_nhwc / conv.depthwise_nhwc / conv.direct).
func supportsConvNCHW(n *graph.Node) bool {
	p, err := resolveConv(n)
	if err != nil {
		return false
	}
	return p.layout == ""
}

// packedConvWeights returns the cached prepacked per-group weight panels
// for the node, packing them from w on a miss: p.groups consecutive
// buffers of PackedASize(coutG, kdim) values each.
func packedConvWeights(ctx *Ctx, n *graph.Node, w []float32, p *convParams) []float32 {
	if buf := ctx.Cache("conv.im2col/pw", n); buf != nil {
		return buf
	}
	coutG, kdim := p.cout/p.groups, (p.cin/p.groups)*p.kh*p.kw
	per := gemm.PackedASize(coutG, kdim)
	buf := make([]float32, p.groups*per)
	for g := 0; g < p.groups; g++ {
		gemm.PrepackAInto(buf[g*per:], w[g*coutG*kdim:(g+1)*coutG*kdim], coutG, kdim)
	}
	ctx.PutCache("conv.im2col/pw", n, buf)
	return buf
}

// prepackConvIm2col is conv.im2col's Prepacker hook.
func prepackConvIm2col(ctx *Ctx, n *graph.Node, w []float32) error {
	p, err := resolveConv(n)
	if err != nil {
		return err
	}
	packedConvWeights(ctx, n, w, &p)
	return nil
}

// runConvIm2col implements conv.im2col; parallelism follows ctx.Workers
// through the shared GEMM worker pool, with batch×tile scheduling across
// the whole strided call. (The deliberately slow per-group naive variant
// lives in conv.group_im2col.)
func runConvIm2col(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
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

	cinG := p.cin / p.groups
	coutG := p.cout / p.groups
	kdim := cinG * p.kh * p.kw
	cols := p.oh * p.ow
	act := gemmActivation(p.activation)
	// A plan built the panels at Compile and released the weight's data;
	// outside a plan (or in a per-run cache) a miss packs them here.
	packedW := packedConvWeights(ctx, n, in[1].Data(), &p)

	perGroup := gemm.PackedASize(coutG, kdim)
	ctx.convSrc.init(x, &p)
	for g := 0; g < p.groups; g++ {
		// One strided call folds the whole batch: the source resolves the
		// image index to its NCHW slab, C images start cout*cols apart,
		// and the group's rows sit coutG*cols into each image.
		ctx.convSrc.chan0 = g * cinG
		var bg []float32
		if bias != nil {
			bg = bias[g*coutG : (g+1)*coutG]
		}
		ctx.GEMM(gemm.Call{PackedA: packedW[g*perGroup : (g+1)*perGroup], BPack: &ctx.convSrc, C: y[g*coutG*cols:],
			M: coutG, N: cols, K: kdim, Store: true,
			Batch: p.n, StrideC: p.cout * cols,
			BiasRow: bg, Act: act, Alpha: p.alpha})
	}
	return nil
}

// runConvIm2colExplicit implements conv.im2col_explicit: classic GEMM
// convolution over a materialised im2col matrix, with separate bias and
// activation sweeps (spread across the worker pool). It is numerically
// the reference for the implicit path and the unfold-per-call behaviour
// the torch-sim backend models.
func runConvIm2colExplicit(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
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

	cinG := p.cin / p.groups
	coutG := p.cout / p.groups
	kdim := cinG * p.kh * p.kw
	cols := p.oh * p.ow
	packedW := packedConvWeights(ctx, n, in[1].Data(), &p)

	// The unfold writes every element (padding included), so the scratch
	// needs no zero-fill; a pointwise conv multiplies the group's planes.
	pointwise := p.pointwise()
	var colBuf []float32
	if !pointwise {
		colBuf = ctx.ScratchUninit("conv.im2col/col", n, kdim*cols)
	}

	perGroup := gemm.PackedASize(coutG, kdim)
	for b := 0; b < p.n; b++ {
		for g := 0; g < p.groups; g++ {
			// The group's input channels are contiguous within one batch
			// image: offset (b*cin + g*cinG)*h*w.
			bm := x[(b*p.cin+g*cinG)*p.h*p.w:]
			if !pointwise {
				tensor.Im2ColInto(colBuf, bm, 1, cinG, p.h, p.w,
					p.kh, p.kw, p.sh, p.sw, p.padT, p.padL, p.dh, p.dw, p.oh, p.ow)
				bm = colBuf
			}
			dst := y[(b*p.cout+g*coutG)*cols : (b*p.cout+(g+1)*coutG)*cols]
			ctx.GEMM(gemm.Call{PackedA: packedW[g*perGroup : (g+1)*perGroup], B: bm, C: dst,
				M: coutG, N: cols, K: kdim, Store: true})
		}
	}
	ctx.Sweep(y, bias, p.n*p.cout, cols, p.activation, p.alpha)
	return nil
}

// addBiasNCHW adds bias[c] to every spatial element of channel c. It is
// the single-threaded sweep kept for the deliberately naive
// conv.group_im2col simulation; production paths fuse the bias into the
// GEMM epilogue or use Ctx.Sweep.
func addBiasNCHW(y, bias []float32, n, c, spatial int) {
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			bv := bias[ch]
			row := y[(b*c+ch)*spatial : (b*c+ch+1)*spatial]
			for i := range row {
				row[i] += bv
			}
		}
	}
}
