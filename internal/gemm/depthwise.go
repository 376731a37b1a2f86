package gemm

import (
	"fmt"
	"math"
)

// Window is the geometry of a window slid over one plane: an H×W input,
// an OH×OW output, a KH×KW window whose taps lie DH rows and DW columns
// apart, moved SH rows and SW columns per output, its top-left tap over
// input (oy·SH − PadT, ox·SW − PadL) for output (oy, ox).
type Window struct {
	H, W, OH, OW int
	KH, KW       int
	SH, SW       int
	DH, DW       int
	PadT, PadL   int
}

// ColTap is what a row walk needs to know about window column kx: the
// output columns [Lo, Hi) whose input column ox·SW + Off lies inside the
// row. It depends on kx alone, so a walk works it out once per layer and
// tests no pixel.
type ColTap struct{ Lo, Hi, Off int }

// ColTap returns the ColTap of window column kx.
func (g Window) ColTap(kx int) ColTap {
	off := kx*g.DW - g.PadL
	lo, hi := 0, 0
	if off < 0 {
		lo = (-off + g.SW - 1) / g.SW
	}
	if last := g.W - 1 - off; last >= 0 {
		hi = min(last/g.SW+1, g.OW)
	}
	return ColTap{Lo: lo, Hi: max(lo, hi), Off: off}
}

// Depthwise is a checked window for DepthwiseRow with the activation its
// stores apply: NewDepthwise (or NewMaxPool) builds one per layer, and
// every plane of the layer reuses it.
type Depthwise struct {
	g     Window
	act   Activation
	alpha float32
	max   bool          // a max window: NewMaxPool's
	args  depthwiseArgs // the per-layer fields of a vector body's call

	// tapBuf keeps the KW-entry ColTap table inside the value — on the
	// caller's stack — for every window anyone runs; a wider one goes to
	// wide.
	tapBuf [16]ColTap
	wide   []ColTap
}

// NewDepthwise checks g and returns it ready for DepthwiseRow, with act
// (and alpha, for ActLeakyReLU) applied to every output. It panics on a
// window with a size, stride or dilation below 1.
func NewDepthwise(g Window, act Activation, alpha float32) Depthwise {
	if min(g.H, g.W, g.OH, g.OW, g.KH, g.KW, g.SH, g.SW, g.DH, g.DW) < 1 {
		panic(fmt.Sprintf("gemm: NewDepthwise of window %+v", g))
	}
	d := Depthwise{g: g, act: act, alpha: alpha, args: depthwiseArgs{
		n: int64(g.OW), h: int64(g.H), sh: int64(g.SH), dh: int64(g.DH),
		kh: int64(g.KH), kw: int64(g.KW), stride: int64(g.SW), loop: int64(g.SW - 1),
		wstep: 4, wpitch: 4 * int64(g.KW), floor: float32(math.Inf(-1)),
	}}
	if act == ActReLU {
		d.args.floor = 0 // ReLU is max(0, ·); max(−Inf, v) is v, −0 and NaN included
	}
	if g.KW > len(d.tapBuf) {
		d.wide = make([]ColTap, g.KW)
	}
	for kx := range d.taps() {
		d.taps()[kx] = g.ColTap(kx)
	}
	return d
}

// NewMaxPool checks g and returns it ready for DepthwiseRow as a max
// window: each output is the greatest of its window's in-image taps.
func NewMaxPool(g Window) Depthwise {
	d := NewDepthwise(g, ActNone, 0)
	d.max = true
	d.args.loop += 2
	return d
}

// taps returns the ColTap table: taps()[kx] for window column kx.
func (d *Depthwise) taps() []ColTap {
	if d.wide != nil {
		return d.wide
	}
	return d.tapBuf[:d.g.KW]
}

// DepthwiseRow is the row primitive of NCHW depthwise convolution: it
// computes output rows [oy0, oy0+rows) of one plane of d's window, the
// r-th at dst[r*ldd:][:OW], over the input plane x whose rows are ldx
// apart:
//
//	dst[r*ldd+ox] = act(bias + Σ w[ky*KW+kx] · x[iy*ldx + ox*SW + Off(kx)])
//
// summed over the taps (ky, kx) whose input row iy = (oy0+r)·SH − PadT +
// ky·DH and column lie inside the plane, in (ky, kx) order. w holds KH·KW
// weights, or one that every tap takes (1 makes an average pool's sums).
//
// Each output is one accumulator from the bias to the store: the vector
// bodies keep a vector of a row's outputs in a register through all its
// taps, a border vector skipping — by lane masks built from the ColTap
// table — exactly the taps the portable body skips, and store it once
// through the activation. Strides 1 and 2 at KW ≤ 16 run them (AVX-512,
// or AVX2, with one fused multiply-add per tap); the rest take the
// portable body.
//
// A max window (NewMaxPool) takes neither weights nor bias, and w may be
// nil: its outputs are seeded with −Inf, which a window wholly in padding
// stores, and each tap replaces the held value only if it is greater —
// VMAXPS with the held value as its second source — so a NaN tap is
// skipped and the first of two equal zeros is kept.
func DepthwiseRow(dst []float32, ldd int, x []float32, ldx int, w []float32, bias float32, d *Depthwise, oy0, rows int) {
	g := d.g
	if rows <= 0 {
		return
	}
	if d.max {
		w, bias = unitWeight, float32(math.Inf(-1))
	}
	if oy0 < 0 || oy0+rows > g.OH || ldx < g.W || ldd < g.OW ||
		len(x) < (g.H-1)*ldx+g.W || len(dst) < (rows-1)*ldd+g.OW ||
		(len(w) != 1 && len(w) < g.KH*g.KW) {
		panic(fmt.Sprintf("gemm: DepthwiseRow of rows [%d, %d) of window %+v: dst %d (ldd %d), x %d (ldx %d), w %d",
			oy0, oy0+rows, g, len(dst), ldd, len(x), ldx, len(w)))
	}
	depthwiseRow(vecBody, dst, ldd, x, ldx, w, bias, d, oy0, rows)
}

// unitWeight is the weight a max window's vector call is given: one for
// every tap, and read by none.
var unitWeight = []float32{1}

// depthwiseArgs is what a vector body reads besides its operands; the
// field offsets are spelled out in vec_amd64.s. Pitches are in floats,
// wstep and wpitch in bytes: from one window column's weight to the
// next's, and from one window row's to the next's. loop picks the tap
// loop: stride − 1, plus 2 in a max window.
type depthwiseArgs struct {
	ldd, ldx, n, rows int64
	iy0, h, sh, dh    int64
	kh, kw, stride    int64
	wstep, wpitch     int64
	bias, floor       float32
	loop              int64
}

// depthwiseVector reports whether body runs d in vector registers, with
// one rounding per tap; otherwise depthwiseRow takes the portable body.
func depthwiseVector(body int, d *Depthwise) bool {
	return body != bodyGo && d.g.SW <= 2 && d.g.KW <= len(d.tapBuf)
}

// depthwiseRowGo is the portable DepthwiseRow body and the oracle of the
// vector ones: a row seeded with the bias takes each tap over its ColTap
// run [Lo, Hi), in (ky, kx) order, so every output sees its taps in the
// order the vector bodies apply them. fused rounds each multiply-add once,
// as they do; unfused, a product is rounded before its add, as Go
// arithmetic is on amd64. A max window's taps go through maxRun instead.
func depthwiseRowGo(dst []float32, ldd int, x []float32, ldx int, w []float32, bias float32, d *Depthwise, oy0, rows int, fused bool) {
	g, taps := d.g, d.taps()
	for r := 0; r < rows; r++ {
		row := dst[r*ldd:][:g.OW]
		for i := range row {
			row[i] = bias
		}
		iy0 := (oy0+r)*g.SH - g.PadT
		for ky := 0; ky < g.KH; ky++ {
			iy := iy0 + ky*g.DH
			if iy < 0 || iy >= g.H {
				continue
			}
			for kx, t := range taps {
				if t.Lo == t.Hi {
					continue
				}
				src := x[iy*ldx+t.Lo*g.SW+t.Off:]
				if d.max {
					maxRun(row[t.Lo:t.Hi], src, g.SW)
					continue
				}
				a := w[0]
				if len(w) > 1 {
					a = w[ky*g.KW+kx]
				}
				maddRun(row[t.Lo:t.Hi], a, src, g.SW, fused)
			}
		}
		if d.act != ActNone {
			ActivateRow(row, row, d.act, d.alpha)
		}
	}
}

// maddRun adds a·x[i*stride] to d[i] for every i.
func maddRun(d []float32, a float32, x []float32, stride int, fused bool) {
	switch {
	case fused:
		for i := range d {
			d[i] = fma32(a, x[i*stride], d[i])
		}
	case stride == 1:
		x = x[:len(d)]
		for i := range d {
			d[i] += a * x[i]
		}
	default:
		for i := range d {
			d[i] += a * x[i*stride]
		}
	}
}

// maxRun sets d[i] to x[i*stride] where that is greater, so a NaN in x is
// skipped and the first of two equal zeros is kept, exactly as VMAXPS
// decides with d as its second source.
func maxRun(d []float32, x []float32, stride int) {
	for i := range d {
		if v := x[i*stride]; v > d[i] {
			d[i] = v
		}
	}
}

// fma32 returns a·b + c rounded once to float32, as VFMADD231PS rounds
// it. The product of two float32s is exact in float64, and the sum is
// rounded to odd there — when it is inexact, to whichever float64 next to
// the exact sum has its last bit set — so that rounding it to float32
// cannot land on a false tie.
func fma32(a, b, c float32) float32 {
	p, q := float64(a)*float64(b), float64(c)
	s := p + q
	if s-s != 0 { // an infinity or NaN: nothing was lost to rounding
		return float32(s)
	}
	t := s - p
	if e := (p - (s - t)) + (q - t); e != 0 {
		if bits := math.Float64bits(s); bits&1 == 0 {
			if (e > 0) == (s > 0) {
				bits++
			} else {
				bits--
			}
			s = math.Float64frombits(bits)
		}
	}
	return float32(s)
}
