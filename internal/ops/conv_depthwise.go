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
// conv.depthwise works a block of output rows (dwBlockFloats) of one
// (image, channel) plane at a time, and the block never leaves L1 between
// its first and last write:
//
//  1. Seed the block with the channel's bias.
//  2. Tap walk. For each kernel row ky, the block's output rows whose input
//     row lies inside the image — found once per (block, ky) — take each
//     tap (ky, kx) as one gemm.AXPYRow: the tap's weight, broadcast, times
//     a run of each input row, added to output columns [lo, hi) of each
//     output row. That range (the columns whose input column is inside
//     the row) depends on kx alone, so it is worked out once per layer
//     into a kw-entry table; no pixel is bounds-tested. Taps go in (ky,
//     kx) order, so every output is the same sum in the same order as the
//     scalar walk this replaced (conv_depthwise_test.go keeps that walk
//     as the oracle: bit for bit without the FMA assembly, 1e-5 with it).
//  3. Stride. At sw == 2 a tap reads every other input column; AXPYRow's
//     stride-2 body de-interleaves each pair of loads in registers, so the
//     input row is read in place and nothing is staged. sw > 2 takes
//     AXPYRow's portable strided loop, still over the hoisted [lo, hi).
//  4. Finish the block with gemm.ActivateRow, the branchless activation
//     the GEMM epilogues use. There is no second pass over the tensor,
//     and one code path for every worker count.
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

// dwBlockFloats sizes the block of output rows the tap walk advances
// together: as many whole rows as fit in 2048 floats, so the block (8 KB)
// and the input rows under it (about as much again) sit in L1 from the
// seed to the finish — 18 rows of a 112-wide plane, all of a 28×28 one.
// One AXPYRow call per tap covers the block, and by the time the next tap
// returns to a row the previous tap's stores to it have left the store
// buffer; row at a time, a tap on a 7- or 14-wide row spent longer being
// called and waiting on the last tap's store than multiplying (mobilenet-v1's
// thirteen layers with ReLU, best of 400 runs each: 6.4 ms at 2 rows a
// block, 5.2 at 4, 3.5 at 8, 2.9 at 16, 2.6 here and no less at 4096).
const dwBlockFloats = 2048

// dwTap is what the row walk needs to know about kernel column kx: the
// output columns [lo, hi) whose input column ox*sw + off lies inside the
// row.
type dwTap struct{ lo, hi, off int }

// depthwiseTaps fills taps[kx] for every kernel column.
func depthwiseTaps(taps []dwTap, p *convParams) {
	for kx := range taps {
		off := kx*p.dw - p.padL
		lo, hi := 0, 0
		if off < 0 {
			lo = (-off + p.sw - 1) / p.sw
		}
		if last := p.w - 1 - off; last >= 0 {
			hi = min(last/p.sw+1, p.ow)
		}
		taps[kx] = dwTap{lo: lo, hi: max(lo, hi), off: off}
	}
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
	act := gemmActivation(p.activation)
	mult := p.cout / p.cin

	// The table lives on the stack for every kernel anyone runs; a wider
	// one allocates rather than fail.
	var tapBuf [16]dwTap
	taps := tapBuf[:]
	if p.kw > len(taps) {
		taps = make([]dwTap, p.kw)
	}
	taps = taps[:p.kw]
	depthwiseTaps(taps, &p)
	blockRows := max(1, dwBlockFloats/p.ow)

	for b := 0; b < p.n; b++ {
		for oc := 0; oc < p.cout; oc++ {
			src := x[(b*p.cin+oc/mult)*p.h*p.w:][:p.h*p.w]
			dst := y[(b*p.cout+oc)*p.oh*p.ow:][:p.oh*p.ow]
			wc := w[oc*p.kh*p.kw:][:p.kh*p.kw]
			var bv float32
			if bias != nil {
				bv = bias[oc]
			}
			for oy0 := 0; oy0 < p.oh; oy0 += blockRows {
				rows := min(blockRows, p.oh-oy0)
				blk := dst[oy0*p.ow:][:rows*p.ow]
				fill(blk, bv)
				for ky := 0; ky < p.kh; ky++ {
					// Rows [r0, r1) of the block are the ones whose input
					// row for this ky exists.
					iy := oy0*p.sh - p.padT + ky*p.dh
					r0, r1 := 0, rows
					for r0 < r1 && iy+r0*p.sh < 0 {
						r0++
					}
					for r0 < r1 && iy+(r1-1)*p.sh >= p.h {
						r1--
					}
					if r0 == r1 {
						continue
					}
					xrow := src[(iy+r0*p.sh)*p.w:]
					for kx, t := range taps {
						if t.lo < t.hi {
							gemm.AXPYRow(blk[r0*p.ow+t.lo:], p.ow, xrow[t.lo*p.sw+t.off:], p.sh*p.w, p.sw,
								wc[ky*p.kw+kx], t.hi-t.lo, r1-r0)
						}
					}
				}
				if act != gemm.ActNone {
					gemm.ActivateRow(blk, blk, act, p.alpha)
				}
			}
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
