package ops

import "orpheus/internal/gemm"

// The plane walk: how the pooling kernels — max pooling in either layout,
// average pooling over channel-innermost images — visit their data. (NCHW
// depthwise convolution and NCHW average pooling make one
// gemm.DepthwiseRow call per plane instead, which keeps each output vector
// in a register through all its taps.) It works a block of output rows
// (blockFloats) of one plane at a time, and the block never leaves L1
// between its first and last write:
//
//  1. The kernel seeds the block (−Inf, zero).
//  2. Tap walk. For each window row ky, the block's output rows whose input
//     row lies inside the image — found once per (block, ky) — take each
//     tap (ky, kx) as one row primitive (gemm.MaxRow, gemm.AXPYRow): a run
//     of each input row folded into output columns [lo, hi) of each output
//     row. That range (the columns whose input column is inside the row)
//     depends on kx alone, so it is worked out once per layer into a
//     kw-entry gemm.ColTap table; no pixel is bounds-tested. Taps go in
//     (ky, kx) order, so every output sees the same values in the same
//     order as the scalar walks this replaced (which the tests keep as
//     oracles).
//  3. Stride. At sw == 2 a tap reads every other input column; MaxRow's
//     stride-2 body de-interleaves each pair of loads in registers, so the
//     input row is read in place and nothing is staged. Other strides take
//     the portable strided loops, still over the hoisted [lo, hi).
//  4. The kernel finishes the block (average scale). There is no second
//     pass over the tensor, and one code path for every worker count.
//
// Channel-innermost images take the same walk with a pixel c floats wide:
// at sw == 1 a row's pixels [lo, hi) are one contiguous run, otherwise a
// tap is one primitive call per output row whose "rows" are the pixels,
// c-vectors sw·c apart.

// blockFloats sizes the block of output rows the tap walk advances
// together: as many whole rows as fit in 2048 floats, so the block (8 KB)
// and the input rows under it (about as much again) sit in L1 from the
// seed to the finish — 18 rows of a 112-wide plane, all of a 28×28 one.
// One primitive call per tap covers the block, and by the time the next
// tap returns to a row the previous tap's stores to it have left the store
// buffer; row at a time, a tap on a 7- or 14-wide row spent longer being
// called and waiting on the last tap's store than multiplying (measured
// when depthwise convolution ran on this walk: mobilenet-v1's thirteen
// depthwise layers with ReLU, best of 400 runs each, took 6.4 ms at 2
// rows a block, 5.2 at 4, 3.5 at 8, 2.9 at 16, 2.6 here and no less at
// 4096).
const blockFloats = 2048

// rowOp is one tap of one block in the terms the gemm row primitives
// take: rows runs of n floats, the r-th starting at dst[r*ldd] of the
// output plane and reading src[r*ldx + i*stride] of the input plane.
type rowOp struct{ dst, ldd, src, ldx, stride, n, rows int }

// planeWalk is the geometry of one window walk. The caller fills the
// geometry from its pool parameters and calls init once per layer.
type planeWalk struct {
	h, w, oh, ow   int
	kh, kw, sh, sw int
	padT, padL     int
	c              int // floats per pixel: 1 for an NCHW plane, C for an NHWC image

	// tapBuf keeps the kw-entry table inside the value — on the kernel's
	// stack — for every kernel anyone runs; a wider one goes to wideTaps
	// rather than fail.
	tapBuf   [16]gemm.ColTap
	wideTaps []gemm.ColTap
}

// taps returns the table init filled: taps()[kx] for window column kx.
func (g *planeWalk) taps() []gemm.ColTap {
	if g.wideTaps != nil {
		return g.wideTaps
	}
	return g.tapBuf[:g.kw]
}

// init fills the tap table.
func (g *planeWalk) init() {
	if g.kw > len(g.tapBuf) {
		g.wideTaps = make([]gemm.ColTap, g.kw)
	}
	win := gemm.Window{W: g.w, OW: g.ow, SW: g.sw, DW: 1, PadL: g.padL}
	for kx := range g.taps() {
		g.taps()[kx] = win.ColTap(kx)
	}
}

// walk visits one plane block by block: seed(oy0, rows) for the block of
// output rows [oy0, oy0+rows), then tap(ky, kx, op) for every window tap
// that reaches it, in (ky, kx) order, then finish(oy0, rows).
func (g *planeWalk) walk(seed func(oy0, rows int), tap func(ky, kx int, op rowOp), finish func(oy0, rows int)) {
	blockRows, taps := max(1, blockFloats/(g.ow*g.c)), g.taps()
	for oy0 := 0; oy0 < g.oh; oy0 += blockRows {
		rows := min(blockRows, g.oh-oy0)
		seed(oy0, rows)
		for ky := 0; ky < g.kh; ky++ {
			// Rows [r0, r1) of the block are the ones whose input row for
			// this ky exists.
			iy0 := oy0*g.sh - g.padT + ky
			r0, r1 := 0, rows
			for r0 < r1 && iy0+r0*g.sh < 0 {
				r0++
			}
			for r0 < r1 && iy0+(r1-1)*g.sh >= g.h {
				r1--
			}
			if r0 == r1 {
				continue
			}
			oy, iy := oy0+r0, iy0+r0*g.sh // the first such row, and the input row it reads
			for kx, t := range taps {
				if t.Lo == t.Hi {
					continue
				}
				dst, src := (oy*g.ow+t.Lo)*g.c, (iy*g.w+t.Lo*g.sw+t.Off)*g.c
				switch {
				case g.c == 1:
					tap(ky, kx, rowOp{dst, g.ow, src, g.sh * g.w, g.sw, t.Hi - t.Lo, r1 - r0})
				case g.sw == 1:
					tap(ky, kx, rowOp{dst, g.ow * g.c, src, g.sh * g.w * g.c, 1, (t.Hi - t.Lo) * g.c, r1 - r0})
				default:
					for r := r0; r < r1; r++ {
						tap(ky, kx, rowOp{dst, g.c, src, g.sw * g.c, 1, g.c, t.Hi - t.Lo})
						dst += g.ow * g.c
						src += g.sh * g.w * g.c
					}
				}
			}
		}
		finish(oy0, rows)
	}
}

// block returns output rows [oy0, oy0+rows) of an output plane.
func (g *planeWalk) block(plane []float32, oy0, rows int) []float32 {
	row := g.ow * g.c
	return plane[oy0*row:][:rows*row]
}

// validRows counts the window rows of output row oy that lie inside the
// image, and validCols the window columns of output column ox: a window's
// in-image taps number validRows(oy) × validCols(ox).
func (g *planeWalk) validRows(oy int) int {
	n := 0
	for ky := 0; ky < g.kh; ky++ {
		if iy := oy*g.sh - g.padT + ky; iy >= 0 && iy < g.h {
			n++
		}
	}
	return n
}

func (g *planeWalk) validCols(ox int) int {
	n := 0
	for _, t := range g.taps() {
		if t.Lo <= ox && ox < t.Hi {
			n++
		}
	}
	return n
}
