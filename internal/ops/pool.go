package ops

import (
	"math"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Pooling kernels: MaxPool, AveragePool (with optional count_include_pad)
// and GlobalAveragePool.
func init() {
	Register(NewOverwritingKernel("maxpool.direct", "MaxPool", nil, runMaxPool))
	Register(NewOverwritingKernel("avgpool.direct", "AveragePool", nil, runAvgPool))
	Register(NewOverwritingKernel("globalavgpool.direct", "GlobalAveragePool", nil, runGlobalAvgPool))
}

// planeWalk returns the window walk of the pool (init not yet called) and
// how many planes it runs over: every (image, channel) plane of an NCHW
// tensor, or every image of an NHWC one with its pixels c floats wide.
func (p *poolParams) planeWalk() (g planeWalk, planes int) {
	g = planeWalk{h: p.h, w: p.w, oh: p.oh, ow: p.ow, kh: p.kh, kw: p.kw,
		sh: p.sh, sw: p.sw, padT: p.padT, padL: p.padL, c: 1}
	if p.layout == "nhwc" {
		g.c = p.c
		return g, p.n
	}
	return g, p.n * p.c
}

// runMaxPool is the plane walk (planewalk.go) seeded with −Inf, each window
// tap one gemm.MaxRow. max keeps the value it holds unless the tap's is
// greater, as the scalar walk's comparison did, so outputs are that walk's
// bit for bit (pool_test.go keeps it as the oracle).
func runMaxPool(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolvePoolRT(n, in)
	if err != nil {
		return err
	}
	x, y := in[0].Data(), out[0].Data()
	g, planes := p.planeWalk()
	g.init()
	inSize, outSize := p.h*p.w*g.c, p.oh*p.ow*g.c
	for i := 0; i < planes; i++ {
		src, dst := x[i*inSize:][:inSize], y[i*outSize:][:outSize]
		g.walk(func(oy0, rows int) {
			fill(g.block(dst, oy0, rows), float32(math.Inf(-1)))
		}, func(_, _ int, op rowOp) {
			gemm.MaxRow(dst[op.dst:], op.ldd, src[op.src:], op.ldx, op.stride, op.n, op.rows)
		}, func(int, int) {})
	}
	return nil
}

// runAvgPool sums each window and scales the sum by its window's size.
// NCHW planes make one gemm.DepthwiseRow call each with a unit weight
// (fma(1, x, sum) rounds once, like the add it stands for); NHWC images
// take the plane walk seeded with zero, each window tap one gemm.AXPYRow
// with a = 1. Either way every sum holds the scalar walk's terms in its
// order. The finish scales each sum by its window's in-image tap count,
// which is separable — validRows(oy) × validCols(ox), kw along the whole
// interior of a row — or by kh·kw under count_include_pad. NCHW divides
// and NHWC multiplies by the reciprocal, as the scalar walks of the two
// layouts did, so each layout's outputs are unchanged to the bit.
func runAvgPool(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolvePoolRT(n, in)
	if err != nil {
		return err
	}
	x, y := in[0].Data(), out[0].Data()
	g, planes := p.planeWalk()
	g.init()
	inSize, outSize := p.h*p.w*g.c, p.oh*p.ow*g.c
	scale := func(seg []float32, count int) {
		switch {
		case count == 0: // a window wholly in padding: the sum is the seed
		case p.layout == "nhwc":
			inv := 1 / float32(count)
			for i := range seg {
				seg[i] *= inv
			}
		default:
			for i := range seg {
				seg[i] /= float32(count)
			}
		}
	}
	// Output columns [in0, in1) see all kw window columns inside the row.
	in0, in1 := g.taps()[0].Lo, g.taps()[p.kw-1].Hi
	finish := func(dst []float32, oy0, rows int) {
		if p.includePad {
			scale(g.block(dst, oy0, rows), p.kh*p.kw)
			return
		}
		for oy := oy0; oy < oy0+rows; oy++ {
			r, nr := g.block(dst, oy, 1), g.validRows(oy)
			for ox := 0; ox < p.ow; {
				end, nc := ox+1, p.kw
				if in0 <= ox && ox < in1 {
					end = in1
				} else {
					nc = g.validCols(ox)
				}
				scale(r[ox*g.c:end*g.c], nr*nc)
				ox = end
			}
		}
	}
	var dw gemm.Depthwise
	if g.c == 1 {
		dw = gemm.NewDepthwise(gemm.Window{H: p.h, W: p.w, OH: p.oh, OW: p.ow, KH: p.kh, KW: p.kw,
			SH: p.sh, SW: p.sw, DH: 1, DW: 1, PadT: p.padT, PadL: p.padL}, gemm.ActNone, 0)
	}
	unit := []float32{1}
	for i := 0; i < planes; i++ {
		src, dst := x[i*inSize:][:inSize], y[i*outSize:][:outSize]
		if g.c == 1 {
			gemm.DepthwiseRow(dst, p.ow, src, p.w, unit, 0, &dw, 0, p.oh)
			finish(dst, 0, p.oh)
			continue
		}
		g.walk(func(oy0, rows int) {
			clear(g.block(dst, oy0, rows))
		}, func(_, _ int, op rowOp) {
			gemm.AXPYRow(dst[op.dst:], op.ldd, src[op.src:], op.ldx, op.stride, 1, op.n, op.rows)
		}, func(oy0, rows int) {
			finish(dst, oy0, rows)
		})
	}
	return nil
}

func runGlobalAvgPool(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	x := in[0]
	s := x.Shape()
	xd, yd := x.Data(), out[0].Data()
	if n.Attrs.Str("layout", "") == "nhwc" {
		nb, spatial, c := s[0], s[1]*s[2], s[3]
		inv := 1 / float32(spatial)
		for b := 0; b < nb; b++ {
			img := xd[b*spatial*c:]
			for ch := 0; ch < c; ch++ {
				var sum float64
				for sp := 0; sp < spatial; sp++ {
					sum += float64(img[sp*c+ch])
				}
				yd[b*c+ch] = float32(sum) * inv
			}
		}
		return nil
	}
	nb, c, spatial := s[0], s[1], s[2]*s[3]
	inv := 1 / float32(spatial)
	for b := 0; b < nb; b++ {
		for ch := 0; ch < c; ch++ {
			var sum float64
			plane := xd[(b*c+ch)*spatial : (b*c+ch+1)*spatial]
			for _, v := range plane {
				sum += float64(v)
			}
			yd[b*c+ch] = float32(sum) * inv
		}
	}
	return nil
}
