package ops

import (
	"math"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Pooling kernels: MaxPool, AveragePool (with optional count_include_pad)
// and GlobalAveragePool. An NCHW plane is one gemm.DepthwiseRow call — a
// max window, or unit weights for an average's sums — which keeps each
// output in a register through all its taps; channel-innermost images go
// one output row at a time through poolNHWC. Either way every output sees
// its window's in-image taps in (ky, kx) order, as the scalar walks that
// pool_test.go keeps as oracles do, and carries their bits.
func init() {
	Register(NewOverwritingKernel("maxpool.direct", "MaxPool", nil, runMaxPool))
	Register(NewOverwritingKernel("avgpool.direct", "AveragePool", nil, runAvgPool))
	Register(NewOverwritingKernel("globalavgpool.direct", "GlobalAveragePool", nil, runGlobalAvgPool))
}

// window returns the pool's window over one plane: one channel of an NCHW
// image, or a whole NHWC image with its pixels c floats wide.
func (p *poolParams) window() gemm.Window {
	return gemm.Window{H: p.h, W: p.w, OH: p.oh, OW: p.ow, KH: p.kh, KW: p.kw,
		SH: p.sh, SW: p.sw, DH: 1, DW: 1, PadT: p.padT, PadL: p.padL}
}

// colTaps appends the window's ColTap table, the entry of window column kx
// at kx, to buf.
func (p *poolParams) colTaps(buf []gemm.ColTap) []gemm.ColTap {
	win := p.window()
	for kx := 0; kx < p.kw; kx++ {
		buf = append(buf, win.ColTap(kx))
	}
	return buf
}

// runMaxPool takes the greatest of each window's in-image taps, −Inf for a
// window wholly in padding. A tap replaces the value held only if it is
// greater, as the scalar walk's comparison did.
func runMaxPool(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolvePoolRT(n, in)
	if err != nil {
		return err
	}
	x, y := in[0].Data(), out[0].Data()
	if p.layout == "nhwc" {
		var buf [16]gemm.ColTap
		p.poolNHWC(x, y, true, p.colTaps(buf[:0]))
		return nil
	}
	d := gemm.NewMaxPool(p.window())
	inSize, outSize := p.h*p.w, p.oh*p.ow
	for i := 0; i < p.n*p.c; i++ {
		gemm.DepthwiseRow(y[i*outSize:][:outSize], p.ow, x[i*inSize:][:inSize], p.w, nil, 0, &d, 0, p.oh)
	}
	return nil
}

// runAvgPool sums each window and scales the sum by its window's size
// (scaleAvg). An NCHW plane's sums are one gemm.DepthwiseRow call with a
// unit weight: fma(1, x, sum) rounds once, like the add it stands for.
func runAvgPool(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	p, err := resolvePoolRT(n, in)
	if err != nil {
		return err
	}
	x, y := in[0].Data(), out[0].Data()
	var buf [16]gemm.ColTap
	taps := p.colTaps(buf[:0])
	if p.layout == "nhwc" {
		p.poolNHWC(x, y, false, taps)
		return nil
	}
	d := gemm.NewDepthwise(p.window(), gemm.ActNone, 0)
	unit := []float32{1}
	inSize, outSize := p.h*p.w, p.oh*p.ow
	for i := 0; i < p.n*p.c; i++ {
		dst := y[i*outSize:][:outSize]
		gemm.DepthwiseRow(dst, p.ow, x[i*inSize:][:inSize], p.w, unit, 0, &d, 0, p.oh)
		for oy := 0; oy < p.oh; oy++ {
			p.scaleAvg(dst[oy*p.ow:][:p.ow], oy, 1, taps)
		}
	}
	return nil
}

// poolNHWC pools channel-innermost images one output row at a time. The
// row is seeded (−Inf for max, zero for an average's sums); then each tap
// (ky, kx) whose input row is inside the image folds in the pixels [Lo,
// Hi) of its ColTap run with one gemm.MaxRow or gemm.AXPYRow call over
// contiguous channel runs — one run of (Hi−Lo)·c floats at sw = 1, else
// Hi−Lo runs of c floats, a pixel apart in the output and sw pixels in the
// input — and an average's row is scaled.
func (p *poolParams) poolNHWC(x, y []float32, isMax bool, taps []gemm.ColTap) {
	c, inSize, rowLen := p.c, p.h*p.w*p.c, p.ow*p.c
	for b := 0; b < p.n; b++ {
		img := x[b*inSize:][:inSize]
		for oy := 0; oy < p.oh; oy++ {
			row := y[(b*p.oh+oy)*rowLen:][:rowLen]
			if isMax {
				fill(row, float32(math.Inf(-1)))
			} else {
				clear(row)
			}
			for ky := 0; ky < p.kh; ky++ {
				iy := oy*p.sh - p.padT + ky
				if iy < 0 || iy >= p.h {
					continue
				}
				for _, t := range taps {
					if t.Lo == t.Hi {
						continue
					}
					dst, src := row[t.Lo*c:], img[(iy*p.w+t.Lo*p.sw+t.Off)*c:]
					n, runs := c, t.Hi-t.Lo
					if p.sw == 1 {
						n, runs = n*runs, 1
					}
					if isMax {
						gemm.MaxRow(dst, c, src, p.sw*c, n, runs)
					} else {
						gemm.AXPYRow(dst, c, src, p.sw*c, 1, n, runs)
					}
				}
			}
			if !isMax {
				p.scaleAvg(row, oy, c, taps)
			}
		}
	}
}

// scaleAvg turns the window sums of output row oy, c floats a pixel, into
// means. The count is kh·kw under count_include_pad, else the window's
// in-image taps, which is separable: the window rows of oy inside the
// image times the window columns whose ColTap run holds ox — all kw across
// [taps[0].Lo, taps[kw−1].Hi). NCHW divides by the count and NHWC
// multiplies by its reciprocal, as the scalar walks of the two layouts
// did; a window wholly in padding keeps its sum, the seed.
func (p *poolParams) scaleAvg(row []float32, oy, c int, taps []gemm.ColTap) {
	scale := func(seg []float32, count int) {
		switch {
		case count == 0:
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
	if p.includePad {
		scale(row, p.kh*p.kw)
		return
	}
	nr := 0
	for ky := 0; ky < p.kh; ky++ {
		if iy := oy*p.sh - p.padT + ky; iy >= 0 && iy < p.h {
			nr++
		}
	}
	in0, in1 := taps[0].Lo, taps[p.kw-1].Hi
	for ox := 0; ox < p.ow; {
		end, nc := ox+1, p.kw
		if in0 <= ox && ox < in1 {
			end = in1
		} else {
			nc = 0
			for _, t := range taps {
				if t.Lo <= ox && ox < t.Hi {
					nc++
				}
			}
		}
		scale(row[ox*c:end*c], nr*nc)
		ox = end
	}
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
