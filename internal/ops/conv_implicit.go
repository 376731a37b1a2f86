package ops

import (
	"unsafe"

	"orpheus/internal/gemm"
)

// Implicit-GEMM convolution support: the geometry and the walk both conv
// pack sources share, and the fp32 source, a gemm.PackSrc that packs B
// panels straight from the NCHW input.
//
// GEMM convolution multiplies the reshaped weight matrix [coutG × kdim]
// by the unfolded input [kdim × oh*ow]. conv.im2col_explicit materialises
// that unfold; the pack sources never do. Once per conv call they copy the
// batch into planes carrying the convolution's padding as a border (x
// itself when fp32 has none), so every tap of every output pixel is an
// in-bounds read. A panel's kc rows then decode to one plane offset each,
// and one division-free walk carries its columns through output pixels
// and strips together, moving each stretch that stays inside one output
// row and one strip for all kc rows in one gemm.GatherTaps call — one
// bounds check per call, no padding branch, no per-row clear. A pointwise
// conv reads each plane contiguously, so its geometry is one output row
// per plane and a stretch crosses the image's output rows.
//
// The walk moves 32-bit elements, so it serves both dtypes: convPackSrc8
// (conv_int8.go) builds planes of channel-quad words, four channels of one
// pixel per word, and packs an int8 panel as the fp32 walk over a quarter
// of its rows.

// convGeo is the geometry of a padded NCHW batch: tap (ky, kx) of group
// plane c for output pixel (oy, ox) of image img sits at
// ((img*cin+chan0+c)*hp + oy*sh + ky*dh)*wp + ox*sw + kx*dw. A plane is
// one channel in fp32 and one channel quad in the int8 word planes.
type convGeo struct {
	cin, chan0             int // planes per image; first plane of the group
	hp, wp                 int // plane dims, padding included
	kh, kw, sh, sw, dh, dw int
	ow                     int
}

// set takes p's geometry, group 0 selected; a pointwise conv flattens to
// one row of h·w pixels per plane.
func (g *convGeo) set(p *convParams) {
	g.cin, g.chan0 = p.cin, 0
	g.hp, g.wp = p.h+p.padT+p.padB, p.w+p.padL+p.padR
	g.kh, g.kw, g.sh, g.sw, g.dh, g.dw = p.kh, p.kw, p.sh, p.sw, p.dh, p.dw
	g.ow = p.ow
	if p.pointwise() {
		g.hp, g.wp, g.ow = 1, p.h*p.w, p.oh*p.ow
	}
}

// taps sets tap[i] to the offset, from the group's first plane, that k-row
// pp+i reads for output pixel (0, 0). It divides once, at entry.
func (g *convGeo) taps(tap []int, pp int) {
	khw, plane := g.kh*g.kw, g.hp*g.wp
	ic := pp / khw
	ky := (pp - ic*khw) / g.kw
	kx := pp - ic*khw - ky*g.kw
	for i := range tap {
		tap[i] = ic*plane + ky*g.dh*g.wp + kx*g.dw
		if kx++; kx == g.kw {
			kx = 0
			if ky++; ky == g.kh {
				ky, ic = 0, ic+1
			}
		}
	}
}

// padPlanes fills planes planes of p's padded geometry in dst, writing
// each element once: row(d, c, y) fills d, the interior of row y of plane
// c, and the border around the interiors is v. The border between two rows
// is only padR+padL elements, so it is stored element by element rather
// than with fill's copies.
func padPlanes(dst []float32, planes int, p *convParams, v float32, row func(d []float32, c, y int)) {
	wp := p.w + p.padL + p.padR
	plane := (p.h + p.padT + p.padB) * wp
	at := 0
	border := func(to int) {
		b := dst[at:to]
		for i := range b {
			b[i] = v
		}
		at = to
	}
	for c := 0; c < planes; c++ {
		for y := 0; y < p.h; y++ {
			border(c*plane + (y+p.padT)*wp + p.padL)
			row(dst[at:at+p.w], c, y)
			at += p.w
		}
	}
	border(planes * plane)
}

// words views b as len(b)/4 32-bit elements. The int8 pack sources move
// k-quads, four bytes of one column, as float32s through the fp32 walk's
// moves — gemm.GatherTaps, plain loads and stores — which carry every bit
// pattern, signalling NaNs included, unchanged: no arithmetic ever
// touches a word.
func words(b []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/4)
}

// quadBytes views w as its bytes, the inverse of words.
func quadBytes(w []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 4*len(w))
}

// convPackSrc is the virtual B matrix of one convolution group over a
// padded fp32 batch. It is read-only during a gemm call, so the pool may
// pack panels from several workers at once.
type convPackSrc struct {
	convGeo
	x   []float32 // the batch's planes: the input itself, or pad
	pad []float32 // zero-bordered copy of the input, reused across calls
}

// init points the source at the input batch of the convolution p
// describes, copying it into zero-bordered planes when p pads (the
// geometry's dims alone cannot tell: a pointwise conv flattens them);
// callers select a group by setting chan0.
func (s *convPackSrc) init(x []float32, p *convParams) {
	s.set(p)
	s.x = x
	if p.padT|p.padL|p.padB|p.padR != 0 {
		s.pad = growF32(s.pad, p.n*p.cin*s.hp*s.wp)
		padPlanes(s.pad, p.n*p.cin, p, 0, func(d []float32, c, y int) {
			copy(d, x[(c*p.h+y)*p.w:])
		})
		s.x = s.pad
	}
}

// PackPanel implements gemm.PackSrc: the kc×nc panel at (pp, jj) of image
// img's unfold matrix, written as strips of nr columns, row-major within
// each strip. Each stretch — the columns that stay inside one output row
// (unless the plane is read contiguously) and one strip — is one
// gemm.GatherTaps call over the panel's tap table, increasing by
// construction; only the edge strip's tail is cleared.
func (s *convPackSrc) PackPanel(dst []float32, img, pp, jj, kc, nc, nr int) {
	var tab [gemm.MaxPanelK]int
	tap := tab[:kc]
	s.taps(tap, pp)
	x := s.x[(img*s.cin+s.chan0)*s.hp*s.wp:]
	rowStep := s.sh * s.wp
	oy := jj / s.ow
	ox := jj - oy*s.ow
	row := oy * rowStep // source offset of the current output row
	d := dst            // the current strip
	for j, jl := 0, 0; j < nc; {
		n := min(s.ow-ox, nr-jl, nc-j)
		gemm.GatherTaps(d[jl:], nr, x[row+ox*s.sw:], tap, n, s.sw)
		j += n
		if ox += n; ox == s.ow {
			ox = 0
			row += rowStep
		}
		if jl += n; jl == nr && j < nc {
			jl = 0
			d = d[kc*nr:]
		}
	}
	gemm.ClearEdgeCols(dst, kc, nr, nc)
}
