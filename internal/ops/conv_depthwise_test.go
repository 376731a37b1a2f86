package ops

import (
	"math"
	"testing"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// runConvDepthwiseScalar is conv.depthwise as it was before the row walk —
// one output pixel at a time, both bounds tested on every tap, the
// activation a branch on the sign — kept as the oracle the walk is pinned
// to. Its one change is the input plane index oc/mult, so that it also
// covers depth multipliers.
func runConvDepthwiseScalar(n *graph.Node, in, out []*tensor.Tensor) error {
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
	mult := p.cout / p.cin

	for b := 0; b < p.n; b++ {
		for c := 0; c < p.cout; c++ {
			src := x[(b*p.cin+c/mult)*p.h*p.w:]
			dst := y[(b*p.cout+c)*p.oh*p.ow:]
			wc := w[c*p.kh*p.kw : (c+1)*p.kh*p.kw]
			var bv float32
			if bias != nil {
				bv = bias[c]
			}
			for oy := 0; oy < p.oh; oy++ {
				iy0 := oy*p.sh - p.padT
				for ox := 0; ox < p.ow; ox++ {
					ix0 := ox*p.sw - p.padL
					acc := bv
					for ky := 0; ky < p.kh; ky++ {
						iy := iy0 + ky*p.dh
						if iy < 0 || iy >= p.h {
							continue
						}
						rowW := wc[ky*p.kw:]
						rowX := src[iy*p.w:]
						for kx := 0; kx < p.kw; kx++ {
							ix := ix0 + kx*p.dw
							if ix < 0 || ix >= p.w {
								continue
							}
							acc += rowX[ix] * rowW[kx]
						}
					}
					dst[oy*p.ow+ox] = acc
				}
			}
		}
	}
	for i, v := range y {
		switch {
		case p.activation == "relu" && v < 0:
			y[i] = 0
		case p.activation == "relu6" && v < 0:
			y[i] = 0
		case p.activation == "relu6" && v > 6:
			y[i] = 6
		case p.activation == "leakyrelu" && v < 0:
			y[i] = p.alpha * v
		}
	}
	return nil
}

// axpyFused reports whether gemm.AXPYRow rounds once per element (the FMA
// assembly) rather than after the multiply and again after the add, as
// the scalar walk does on amd64: a·a = 1 + 2⁻¹¹ + 2⁻²⁴ loses its last
// term when rounded to float32, so only a fused a·a − round(a·a) is
// non-zero.
func axpyFused() bool {
	a := float32(1 + 1.0/4096)
	d := []float32{-(a * a)}
	gemm.AXPYRow(d, 1, []float32{a}, 1, a, 1, 1)
	return d[0] != 0
}

// checkDepthwiseVsScalar runs conv.depthwise and the scalar oracle on the
// same tensors. The walk adds the same taps in the same order, so wherever
// AXPYRow is the portable loop (-tags noasm, no AVX2) every output must
// match bit for bit; the FMA assembly is held to 1e-5 relative.
func checkDepthwiseVsScalar(t testing.TB, tc convCase, act string, seed uint64) {
	t.Helper()
	attrs := tc.attrs()
	if act != "" {
		attrs["activation"] = act
		attrs["alpha"] = 0.1
	}
	inputs := tc.tensors(seed)
	n := buildNode(t, "Conv", attrs, inputs...)
	want := tensor.New(n.Outputs[0].Shape...)
	if err := runConvDepthwiseScalar(n, inputs, []*tensor.Tensor{want}); err != nil {
		t.Fatal(err)
	}
	got := runKernel(t, "conv.depthwise", "Conv", attrs, inputs...)
	fused := axpyFused()
	for i, g := range got.Data() {
		w := want.Data()[i]
		if fused {
			if math.Abs(float64(g-w)) > 1e-5*math.Max(1, math.Abs(float64(w))) {
				t.Fatalf("%+v act %q: output %d = %v, scalar walk %v", tc, act, i, g, w)
			}
		} else if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%+v act %q: output %d = %v, scalar walk %v: not the same bits", tc, act, i, g, w)
		}
	}
}

// dwCase is a 3×3 pad-1 depthwise convCase unless overridden.
func dwCase(c, h, w, stride int) convCase {
	return convCase{n: 1, cin: c, h: h, w: w, cout: c, kh: 3, kw: 3, sh: stride, sw: stride,
		padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: c, bias: true}
}

func TestDepthwiseMatchesScalar(t *testing.T) {
	var cases []convCase
	// MobileNet's depthwise geometries at reduced channel count.
	for _, hw := range []int{112, 56, 28, 14, 7} {
		cases = append(cases, dwCase(3, hw, hw, 1), dwCase(3, hw, hw, 2))
	}
	// Every output width across the 16-, 8-, 4-, 2- and 1-lane blocks of
	// both assembly bodies, with output heights that leave partial row
	// blocks.
	for w := 1; w <= 20; w++ {
		cases = append(cases, dwCase(2, 1+w%7, w, 1), dwCase(2, 2+w%5, 2*w, 2))
	}
	with := func(tc convCase, f func(*convCase)) convCase { f(&tc); return tc }
	cases = append(cases,
		with(dwCase(2, 12, 10, 1), func(c *convCase) { c.kh, c.kw, c.padT, c.padL, c.padB, c.padR = 5, 5, 2, 2, 2, 2 }),
		with(dwCase(2, 9, 11, 1), func(c *convCase) { c.kh, c.padT, c.padB = 1, 0, 0 }),
		with(dwCase(2, 10, 10, 1), func(c *convCase) { c.dh, c.dw, c.padT, c.padL, c.padB, c.padR = 2, 2, 2, 2, 2, 2 }),
		with(dwCase(2, 11, 13, 2), func(c *convCase) { c.dh, c.dw = 2, 2 }),
		with(dwCase(3, 7, 7, 1), func(c *convCase) { c.padT, c.padL, c.padB, c.padR = 1, 0, 0, 1 }),
		with(dwCase(3, 8, 9, 2), func(c *convCase) { c.padT, c.padL, c.padB, c.padR = 0, 2, 1, 0 }),
		with(dwCase(2, 5, 5, 1), func(c *convCase) { c.padT, c.padL, c.padB, c.padR = 3, 3, 4, 4 }), // pad ≥ kernel: whole taps fall outside
		with(dwCase(2, 4, 3, 2), func(c *convCase) { c.padT, c.padL, c.padB, c.padR = 3, 4, 3, 4 }),
		dwCase(2, 13, 17, 3), // stride 3: the portable strided loop
		with(dwCase(2, 9, 14, 1), func(c *convCase) { c.sh = 2 }),
		with(dwCase(2, 9, 14, 2), func(c *convCase) { c.sh = 1 }),
		with(dwCase(3, 9, 9, 1), func(c *convCase) { c.n = 2 }),
		with(dwCase(3, 9, 9, 2), func(c *convCase) { c.n, c.cout = 2, 6 }), // batch 2 × depth multiplier 2
		with(dwCase(4, 6, 6, 1), func(c *convCase) { c.cout = 12 }),
	)
	acts := []string{"", "relu", "relu6", "leakyrelu"}
	for i, tc := range cases {
		for j, act := range acts {
			for _, bias := range []bool{true, false} {
				// The full activation × bias cross on the small cases; the
				// MobileNet planes take one combination each in turn.
				if tc.h > 20 && (j != i%len(acts) || bias != (i%2 == 0)) {
					continue
				}
				tc.bias = bias
				checkDepthwiseVsScalar(t, tc, act, uint64(i+1))
			}
		}
	}
}

// TestDepthwiseSupportsDepthMultiplier pins the registry contract:
// groups == cin with cout a multiple of cin is depthwise; anything else
// grouped is not.
func TestDepthwiseSupportsDepthMultiplier(t *testing.T) {
	for _, tc := range []struct {
		cin, cout, groups int
		want              bool
	}{{4, 4, 4, true}, {4, 8, 4, true}, {4, 12, 4, true}, {4, 8, 2, false}, {4, 4, 1, false}, {1, 1, 1, false}} {
		c := dwCase(tc.cin, 6, 6, 1)
		c.cout, c.groups = tc.cout, tc.groups
		n := buildNode(t, "Conv", c.attrs(), c.tensors(1)...)
		if got := ByName("conv.depthwise").Supports(n); got != tc.want {
			t.Errorf("cin %d cout %d groups %d: Supports = %v, want %v", tc.cin, tc.cout, tc.groups, got, tc.want)
		}
	}
}

// FuzzDepthwiseVsScalar holds the row walk to the scalar walk on random
// geometry: kernel, stride, dilation and the four pads all independent,
// depth multiplier, batch, bias and activation included.
func FuzzDepthwiseVsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(14), uint8(14), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint16(0x1111), uint8(0))
	f.Add(uint64(2), uint8(9), uint8(33), uint8(5), uint8(2), uint8(2), uint8(2), uint8(1), uint8(2), uint16(0x2012), uint8(7))
	f.Add(uint64(3), uint8(4), uint8(3), uint8(3), uint8(3), uint8(1), uint8(3), uint8(2), uint8(1), uint16(0x4343), uint8(13))
	f.Fuzz(func(t *testing.T, seed uint64, h, w, kh, kw, sh, sw, dh, dw uint8, pads uint16, mix uint8) {
		tc := convCase{
			n: 1 + int(mix>>3)%2, cin: 1 + int(mix>>4)%3,
			h: 1 + int(h)%40, w: 1 + int(w)%40,
			kh: 1 + int(kh)%5, kw: 1 + int(kw)%5,
			sh: 1 + int(sh)%3, sw: 1 + int(sw)%3,
			dh: 1 + int(dh)%3, dw: 1 + int(dw)%3,
			padT: int(pads) % 6, padL: int(pads>>4) % 6, padB: int(pads>>8) % 6, padR: int(pads>>12) % 6,
			bias: mix&4 != 0,
		}
		tc.cin++ // one channel is groups == 1, not depthwise
		tc.groups = tc.cin
		tc.cout = tc.cin * (1 + int(mix>>6)%2)
		if tc.h+tc.padT+tc.padB < (tc.kh-1)*tc.dh+1 || tc.w+tc.padL+tc.padR < (tc.kw-1)*tc.dw+1 {
			t.Skip("kernel exceeds padded input")
		}
		act := []string{"", "relu", "relu6", "leakyrelu"}[mix%4]
		checkDepthwiseVsScalar(t, tc, act, seed)
	})
}
