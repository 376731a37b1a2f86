package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// dwCase is one DepthwiseRow call to check: a window, the activation,
// whether every tap takes one weight (an average pool's sums) or the window
// is a max window (NewMaxPool's), how far the input and output row pitches
// run past their rows, and which output rows.
type dwCase struct {
	g          Window
	act        Activation
	unit, max  bool
	xpad, dpad int
	oy0, rows  int
}

// checkDepthwiseRow runs body — or, for body −1, the exported DepthwiseRow
// with its bounds checks — and the portable body on the same operands, the
// latter fused wherever body runs in vector registers, and fails unless
// every float of dst matches bit for bit, those around and between the
// rows included: a body may write nothing but its rows' OW outputs. x ends
// at the last element of the plane's last row. A max window's x also holds
// NaNs and −Infs, and its bodies are given what DepthwiseRow gives them:
// unitWeight and a −Inf bias.
func checkDepthwiseRow(t *testing.T, body int, c dwCase, r *rand.Rand) {
	t.Helper()
	g := c.g
	d := NewDepthwise(g, c.act, 0.1)
	if c.max {
		d = NewMaxPool(g)
	}
	ldx, ldd := g.W+c.xpad, g.OW+c.dpad
	draw := func() float32 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return negZero
		case 2: // a wide exponent range, so that roundings differ
			return float32(r.NormFloat64() * math.Ldexp(1, r.Intn(40)-20))
		case 3:
			if c.max {
				return []float32{float32(math.NaN()), float32(math.Inf(-1))}[r.Intn(2)]
			}
		}
		return r.Float32()*2 - 1
	}
	align := r.Intn(4)
	x := make([]float32, align+(g.H-1)*ldx+g.W)[align:]
	for i := range x {
		x[i] = draw()
	}
	w := make([]float32, g.KH*g.KW)
	if c.unit {
		w = []float32{1}
	}
	for i := range w {
		if !c.unit {
			w[i] = draw()
		}
	}
	bias := draw()
	if c.max {
		w, bias = unitWeight, float32(math.Inf(-1))
	}
	const guard = 1234.5
	got := make([]float32, (c.rows-1)*ldd+g.OW+9)
	for i := range got {
		got[i] = guard
	}
	want := append([]float32(nil), got...)
	depthwiseRowGo(want, ldd, x, ldx, w, bias, &d, c.oy0, c.rows, body >= 0 && depthwiseVector(body, &d))
	if body < 0 {
		ew, eb := w, bias
		if c.max { // which takes neither weights nor bias
			ew, eb = nil, 7
		}
		DepthwiseRow(got, ldd, x, ldx, ew, eb, &d, c.oy0, c.rows)
		if depthwiseVector(vecBody, &d) {
			depthwiseRowGo(want, ldd, x, ldx, w, bias, &d, c.oy0, c.rows, true)
		}
	} else {
		depthwiseRow(body, got, ldd, x, ldx, w, bias, &d, c.oy0, c.rows)
	}
	for i := range got {
		if gb, wb := math.Float32bits(got[i]), math.Float32bits(want[i]); gb != wb {
			t.Fatalf("body %d %+v: dst[%d] = %v (%#08x), want %v (%#08x)", body, c, i, got[i], gb, want[i], wb)
		}
	}
}

// TestDepthwiseRowAsmMatchesGo pins every DepthwiseRow body this host has
// — AVX-512 and AVX2 called directly, so an AVX-512 host still runs the
// AVX2 one — to the fused portable body bit for bit: output widths 1–40
// across whole and partial columns of both, strides 1 and 2 (and 3, which
// every body hands to the portable one), 3×3 and 5×1 windows with borders
// on either side, dilation 2, 16 columns, windows wholly in padding, row
// pitches past the rows, every activation, unit weights, max windows (NaN,
// ±0 and −Inf inputs), and blocks of rows starting inside the plane.
func TestDepthwiseRowAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for body := bodyGo; body <= vecBody; body++ {
		for ow := 1; ow <= 40; ow++ {
			for _, sw := range []int{1, 2, 3} {
				for i, k := range []struct{ kh, kw, dw, pad int }{{3, 3, 1, 1}, {1, 5, 1, 2}, {3, 3, 2, 0}, {2, 4, 1, 3}, {3, 2, 1, 3}, {2, 16, 1, 7}} {
					w := (ow-1)*sw + (k.kw-1)*k.dw + 1 - 2*k.pad
					if w < 1 {
						continue
					}
					h := 2 + (ow+i)%5
					g := Window{H: h, W: w, OW: ow, KH: k.kh, KW: k.kw,
						SH: 1 + i%2, SW: sw, DH: 1, DW: k.dw, PadT: k.pad, PadL: k.pad}
					g.OH = (g.H+2*k.pad-(k.kh-1)-1)/g.SH + 1
					if g.OH < 1 {
						continue
					}
					oy0 := (ow + i) % g.OH
					c := dwCase{g: g, act: Activation(ow % 4), unit: ow%7 == 0,
						xpad: i, dpad: ow % 3, oy0: oy0, rows: g.OH - oy0}
					checkDepthwiseRow(t, body, c, r)
					c.act, c.max = ActNone, true
					checkDepthwiseRow(t, body, c, r)
				}
			}
		}
	}
}

// FuzzDepthwiseRow holds every DepthwiseRow body this host has, and the
// exported call with its bounds checks, to the portable body over fuzzed
// windows: widths 1–40, strides 1–3, kernels up to 5×16, dilations 1–3,
// pads that leave taps, or whole window columns, outside the row, row
// pitches, activations, unit weights, max windows and blocks of rows.
func FuzzDepthwiseRow(f *testing.F) {
	f.Add(int64(1), uint8(14), uint8(14), uint8(0), uint8(3), uint8(3), uint8(0), uint8(0x11), uint8(0))
	f.Add(int64(2), uint8(7), uint8(40), uint8(1), uint8(3), uint8(3), uint8(1), uint8(0x10), uint8(0x21))
	f.Add(int64(3), uint8(9), uint8(33), uint8(0), uint8(5), uint8(2), uint8(0x12), uint8(0x42), uint8(0xC7))
	f.Fuzz(func(t *testing.T, seed int64, h, w, sw, kh, kw, dil, pads, mix uint8) {
		g := Window{H: 1 + int(h)%24, W: 1 + int(w)%40, KH: 1 + int(kh)%5, KW: 1 + int(kw)%16,
			SH: 1 + int(mix>>6)%2, SW: 1 + int(sw)%3, DH: 1 + int(dil)%3, DW: 1 + int(dil>>4)%3,
			PadT: int(pads) % 6, PadL: int(pads>>4) % 6}
		g.OH = (g.H+2*g.PadT-(g.KH-1)*g.DH-1)/g.SH + 1
		g.OW = (g.W+2*g.PadL-(g.KW-1)*g.DW-1)/g.SW + 1
		if g.OH < 1 || g.OW < 1 {
			t.Skip("window exceeds padded input")
		}
		r := rand.New(rand.NewSource(seed))
		oy0 := r.Intn(g.OH)
		c := dwCase{g: g, act: Activation(mix % 4), unit: mix&4 != 0, xpad: int(mix>>3) % 3, dpad: int(mix>>5) % 2,
			oy0: oy0, rows: 1 + r.Intn(g.OH-oy0)}
		if sw&0x80 != 0 {
			c.act, c.max = ActNone, true
		}
		checkDepthwiseRow(t, -1, c, r)
		for body := bodyAVX2; body <= vecBody; body++ {
			checkDepthwiseRow(t, body, c, r)
		}
	})
}

// TestMaxPoolWindowInPadding: a max window with no tap inside the plane
// stores −Inf, the seed, on every body; the others store the greatest of
// their taps.
func TestMaxPoolWindowInPadding(t *testing.T) {
	g := Window{H: 3, W: 3, OH: 3, OW: 3, KH: 2, KW: 2, SH: 2, SW: 2, DH: 1, DW: 1, PadT: 2, PadL: 2}
	d := NewMaxPool(g)
	x, inf := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, float32(math.Inf(-1))
	want := []float32{inf, inf, inf, inf, 5, 6, inf, 8, 9}
	for body := bodyGo; body <= vecBody; body++ {
		got := make([]float32, 9)
		depthwiseRow(body, got, 3, x, 3, unitWeight, inf, &d, 0, 3)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("body %d: got %v, want %v", body, got, want)
			}
		}
	}
}

// TestDepthwiseRowPanics pins the bounds DepthwiseRow proves before any
// body runs, and NewDepthwise's check of the window.
func TestDepthwiseRowPanics(t *testing.T) {
	g := Window{H: 4, W: 5, OH: 4, OW: 5, KH: 3, KW: 3, SH: 1, SW: 1, DH: 1, DW: 1, PadT: 1, PadL: 1}
	d := NewDepthwise(g, ActNone, 0)
	x, dst, w := make([]float32, 20), make([]float32, 20), make([]float32, 9)
	for _, c := range []struct {
		name       string
		f          func()
		wantPrefix string
	}{
		{"x one short", func() { DepthwiseRow(dst, 5, x[:19], 5, w, 0, &d, 0, 4) }, "gemm: DepthwiseRow"},
		{"dst one short", func() { DepthwiseRow(dst[:19], 5, x, 5, w, 0, &d, 0, 4) }, "gemm: DepthwiseRow"},
		{"rows past OH", func() { DepthwiseRow(dst, 5, x, 5, w, 0, &d, 1, 4) }, "gemm: DepthwiseRow"},
		{"ldx below W", func() { DepthwiseRow(dst, 5, x, 4, w, 0, &d, 0, 4) }, "gemm: DepthwiseRow"},
		{"two weights", func() { DepthwiseRow(dst, 5, x, 5, w[:2], 0, &d, 0, 4) }, "gemm: DepthwiseRow"},
		{"zero stride", func() { NewDepthwise(Window{H: 1, W: 1, OH: 1, OW: 1, KH: 1, KW: 1, SH: 1, DH: 1, DW: 1}, ActNone, 0) }, "gemm: NewDepthwise"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, c.wantPrefix) {
					t.Errorf("%s: recovered %q, want a %s panic", c.name, msg, c.wantPrefix)
				}
			}()
			c.f()
		}()
	}
}

// TestFMA32 pins fma32, the portable body's fused multiply-add, on the
// case that separates one rounding from two roundings through float64:
// a·a = 1 + 2⁻¹¹ + 2⁻²⁴ lies exactly halfway between two float32s, so a
// tiny c decides the rounding, which a float64 sum would lose. Where
// AXPYRow runs FMA assembly it is also the hardware's answer on random
// operands.
func TestFMA32(t *testing.T) {
	a, tiny := float32(1+1.0/4096), float32(math.Ldexp(1, -100))
	for _, c := range []struct{ a, b, c, want float32 }{
		{a, a, 0, 1 + 1.0/2048},                       // the tie, to even
		{a, a, tiny, 1 + 1.0/2048 + 1.0/(1<<23)},      // just above it
		{a, a, -tiny, 1 + 1.0/2048},                   // just below it
		{-a, a, tiny, -(1 + 1.0/2048)},                // and mirrored
		{a, a, -(a * a), float32(math.Ldexp(1, -24))}, // the lost term
		{3, 4, float32(math.Inf(-1)), float32(math.Inf(-1))},
	} {
		if got := fma32(c.a, c.b, c.c); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("fma32(%v, %v, %v) = %v, want %v", c.a, c.b, c.c, got, c.want)
		}
	}
	if !axpyFused() {
		return
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 100000; i++ {
		x, y, z := float32(r.NormFloat64()), float32(r.NormFloat64()), float32(r.NormFloat64()*math.Ldexp(1, r.Intn(60)-30))
		d := []float32{z}
		AXPYRow(d, 1, []float32{y}, 1, x, 1, 1)
		if got := fma32(x, y, z); math.Float32bits(got) != math.Float32bits(d[0]) {
			t.Fatalf("fma32(%v, %v, %v) = %v, hardware %v", x, y, z, got, d[0])
		}
	}
}

// BenchmarkDepthwiseRow times one plane of mobilenet-v1's depthwise
// geometries — 3×3, pad 1, ReLU — per DepthwiseRow call.
func BenchmarkDepthwiseRow(b *testing.B) {
	for _, c := range []struct{ hw, stride int }{{112, 1}, {56, 2}, {28, 1}, {14, 1}, {14, 2}, {7, 1}} {
		oh := (c.hw-1)/c.stride + 1
		g := Window{H: c.hw, W: c.hw, OH: oh, OW: oh, KH: 3, KW: 3, SH: c.stride, SW: c.stride, DH: 1, DW: 1, PadT: 1, PadL: 1}
		d := NewDepthwise(g, ActReLU, 0)
		x, y, w := make([]float32, c.hw*c.hw), make([]float32, oh*oh), make([]float32, 9)
		for i := range x {
			x[i] = float32(i%13) - 6
		}
		for i := range w {
			w[i] = float32(i) / 9
		}
		b.Run(fmt.Sprintf("%dx%d/s%d", c.hw, c.hw, c.stride), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				DepthwiseRow(y, oh, x, c.hw, w, 0.5, &d, 0, oh)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*oh*oh), "ns/output")
		})
	}
}
