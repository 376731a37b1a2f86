package ops

import "orpheus/internal/gemm"

// Implicit-GEMM convolution support: a gemm.PackSrc that packs B panels
// straight from the NCHW input image.
//
// GEMM convolution multiplies the reshaped weight matrix [coutG × kdim]
// by the unfolded input [kdim × oh*ow]. The explicit form (conv.im2col_
// explicit) materialises that unfold into a kdim×cols scratch matrix that
// the packed GEMM then re-reads and re-copies into panels — every input
// element is written once and read twice before any arithmetic happens.
// convPackSrc removes the intermediate: the packed tier asks it for each
// kc×nc panel and it gathers the receptive-field values directly into
// pack strips, handling padding, stride, dilation, groups and the batch
// (the image index selects the NCHW slab). The kdim×cols scratch and its
// per-session arena reservation disappear entirely.

// convPackSrc describes the virtual B matrix of one convolution group:
// B[kd][col] = x[img][chan0 + kd/(kh*kw)][oy*sh - padT + ky*dh][ox*sw -
// padL + kx*dw] with (ky, kx) from kd and (oy, ox) from col, zero outside
// the input. It is read-only during a gemm call, so the pool may pack
// panels from several workers at once.
type convPackSrc struct {
	x                                  []float32 // whole NCHW input batch
	cin                                int       // channels per image (image stride is cin*h*w)
	h, w                               int
	chan0                              int // first input channel of this group
	kh, kw, sh, sw, padT, padL, dh, dw int
	oh, ow                             int
}

// init points the source at group g of the convolution described by p.
func (s *convPackSrc) init(x []float32, p *convParams, g int) {
	s.x = x
	s.cin, s.h, s.w = p.cin, p.h, p.w
	s.chan0 = g * (p.cin / p.groups)
	s.kh, s.kw, s.sh, s.sw = p.kh, p.kw, p.sh, p.sw
	s.padT, s.padL, s.dh, s.dw = p.padT, p.padL, p.dh, p.dw
	s.oh, s.ow = p.oh, p.ow
}

// PackPanel implements gemm.PackSrc: the kc×nc panel at (pp, jj) of image
// img's unfold matrix, written as strips of nr columns (row-major within
// each strip), edge strips zero-padded. Rows decode to (channel, ky, kx)
// and a strip's first column to an output pixel once at entry, and are
// carried from there; columns are walked in runs that stay within one
// output row, so each run is one bounds-free copy — strided when sw > 1.
func (s *convPackSrc) PackPanel(dst []float32, img, pp, jj, kc, nc, nr int) {
	khw := s.kh * s.kw
	plane := s.h * s.w
	imgBase := (img*s.cin + s.chan0) * plane
	ic0 := pp / khw
	ky0 := (pp - ic0*khw) / s.kw
	kx0 := pp - ic0*khw - ky0*s.kw
	for j := 0; j < nc; j += nr {
		cols := min(nr, nc-j)
		strip := dst[(j/nr)*kc*nr:]
		oy0 := (jj + j) / s.ow
		ox0 := jj + j - oy0*s.ow
		ic, ky, kx := ic0, ky0, kx0
		for p := 0; p < kc; p++ {
			xc := s.x[imgBase+ic*plane:][:plane]
			dy := ky*s.dh - s.padT // iy = oy*sh + dy
			dx := kx*s.dw - s.padL // ix = ox*sw + dx
			row := strip[p*nr : p*nr+nr]
			oy, ox := oy0, ox0
			for cc := 0; cc < cols; {
				run := min(s.ow-ox, cols-cc)
				seg := row[cc : cc+run]
				iy := oy*s.sh + dy
				if iy < 0 || iy >= s.h {
					clear(seg)
				} else {
					// The run's pixels [lo, hi) read a column inside the
					// row — worked out once per run, so no pixel is
					// bounds-tested: zero the fringes, gather the live
					// middle in one strided copy. The source slice runs on
					// to the end of the plane, which lets GatherRow's
					// stride-2 body read its one float past the last
					// column everywhere but on the plane's last row.
					ix := ox*s.sw + dx
					lo, hi := 0, run
					if ix < 0 {
						lo = min((-ix+s.sw-1)/s.sw, run)
					}
					if ix+(run-1)*s.sw >= s.w {
						hi = max((s.w-ix+s.sw-1)/s.sw, lo)
					}
					clear(seg[:lo])
					if hi > lo {
						gemm.GatherRow(seg[lo:hi], xc[iy*s.w+ix+lo*s.sw:], s.sw)
					}
					clear(seg[hi:])
				}
				// A run ends at the end of its output row or of the strip.
				cc += run
				oy, ox = oy+1, 0
			}
			clear(row[cols:])
			if kx++; kx == s.kw {
				kx = 0
				if ky++; ky == s.kh {
					ky, ic = 0, ic+1
				}
			}
		}
	}
}
