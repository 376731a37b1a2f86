package ops

import (
	"cmp"
	"fmt"
	"math"
	"testing"

	"orpheus/internal/gemm"
	"orpheus/internal/quant"
	"orpheus/internal/tensor"
)

// quantCloseEnough compares an int8-tier output against the fp32
// reference on a quantization budget instead of fp32 bit-closeness: the
// max absolute divergence must stay within a small fraction of the
// reference's own dynamic range (symmetric s8 weights carry ~1/63
// relative error, u8 activations ~1/255 of their range, and errors
// accumulate sub-linearly over K).
func quantCloseEnough(t *testing.T, name string, got, ref *tensor.Tensor) {
	t.Helper()
	var amax float32
	for _, v := range ref.Data() {
		if v < 0 {
			v = -v
		}
		if v > amax {
			amax = v
		}
	}
	tol := 0.05*float64(amax) + 1e-3
	if d := tensor.MaxAbsDiff(got, ref); d > tol {
		t.Errorf("%s diverges from fp32 reference: max diff %g, quant budget %g (ref max %g)", name, d, tol, amax)
	}
}

// TestConvInt8WithinQuantTolerance runs conv.im2col_int8 over every
// geometry of the fp32 equivalence matrix it supports and holds it to a
// quantization tolerance against conv.direct — the int8 counterpart of
// TestConvKernelEquivalence, which excludes quantized kernels.
func TestConvInt8WithinQuantTolerance(t *testing.T) {
	k := ByName("conv.im2col_int8")
	if k == nil {
		t.Fatal("conv.im2col_int8 not registered")
	}
	if !IsQuantized(k) {
		t.Fatal("conv.im2col_int8 must register as quantized")
	}
	supported := 0
	for _, tc := range convMatrix {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			inputs := tc.tensors(tensor.SeedFromString(tc.name))
			n := buildNode(t, "Conv", tc.attrs(), inputs...)
			if !k.Supports(n) {
				t.Skip("geometry unsupported by the int8 tier")
			}
			supported++
			ref := runKernel(t, "conv.direct", "Conv", tc.attrs(), inputs...)
			got := runKernel(t, "conv.im2col_int8", "Conv", tc.attrs(), inputs...)
			quantCloseEnough(t, "conv.im2col_int8", got, ref)
		})
	}
}

// TestDenseInt8WithinQuantTolerance is the dense counterpart: the int8
// product must match dense.gemm on the quantization budget for single
// samples and batches, with and without bias, and bit for bit the
// int8ConvReference of the 1×1 convolution it runs as — which pins
// per-sample quantization and Y's row-major layout.
func TestDenseInt8WithinQuantTolerance(t *testing.T) {
	k := ByName("dense.gemm_int8")
	if k == nil {
		t.Fatal("dense.gemm_int8 not registered")
	}
	if !IsQuantized(k) {
		t.Fatal("dense.gemm_int8 must register as quantized")
	}
	type denseCase struct {
		name        string
		batch, m, n int
		bias        bool
		act         string
	}
	cases := []denseCase{
		{"single", 1, 10, 64, false, ""},
		{"single-bias", 1, 7, 33, true, ""},
		{"batch4-relu", 4, 16, 128, true, "relu"},
		{"batch3-odd", 3, 5, 100, false, ""},
		{"deep", 2, 12, 1024, true, ""},
	}
	for _, act := range []string{"", "relu", "relu6", "leakyrelu"} {
		for _, batch := range []int{1, 3} {
			for _, n := range []int{33, 100} {
				for _, bias := range []bool{false, true} {
					name := fmt.Sprintf("b%d-k%d-%s", batch, n, cmp.Or(act, "linear"))
					if bias {
						name += "-bias"
					}
					cases = append(cases, denseCase{name, batch, 11, n, bias, act})
				}
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tensor.NewRNG(tensor.SeedFromString(tc.name))
			x := tensor.Rand(r, -2, 2, tc.batch, tc.n)
			w := tensor.Rand(r, -1, 1, tc.m, tc.n)
			inputs := []*tensor.Tensor{x, w}
			var bias []float32
			if tc.bias {
				inputs = append(inputs, tensor.Rand(r, -1, 1, tc.m))
				bias = inputs[2].Data()
			}
			attrs := map[string]any{}
			if tc.act != "" {
				attrs["activation"] = tc.act
			}
			ref := runKernel(t, "dense.gemm", "Dense", attrs, inputs...)
			got := runKernel(t, "dense.gemm_int8", "Dense", attrs, inputs...)
			quantCloseEnough(t, "dense.gemm_int8", got, ref)
			p := denseConv(buildNode(t, "Dense", attrs, inputs...), tc.batch)
			want := int8ConvReference(x.Data(), w.Data(), bias, &p)
			for i, v := range got.Data() {
				if g, w := math.Float32bits(v), math.Float32bits(want[i]); g != w {
					t.Fatalf("output %d = %v (%#08x), 1×1 conv reference %v (%#08x)", i, v, g, want[i], w)
				}
			}
		})
	}
}

// int8ConvReference is conv.im2col_int8 computed the slow way from the
// same quantization helpers: per-row weight quantization over the graph's
// own K order, per-image activation quantization of the unpadded input,
// one int32 sum per output in (ic, ky, kx) order with padding read as the
// zero point, and the epilogue's requantize expression and activation.
func int8ConvReference(x, w, bias []float32, p *convParams) []float32 {
	cg, coutG := p.cin/p.groups, p.cout/p.groups
	kdim := cg * p.kh * p.kw
	wq := make([]int8, p.cout*kdim)
	sA := make([]float32, p.cout)
	quant.QuantizeRowsInto(wq, sA, w, p.cout, kdim, quant.QMaxGemm)
	rs := make([]int32, p.cout)
	gemm.RowSumsInt8(rs, wq, p.cout, kdim)
	q := make([]byte, p.cin*p.h*p.w)
	y := make([]float32, p.n*p.cout*p.oh*p.ow)
	for img := 0; img < p.n; img++ {
		xi := x[img*len(q) : (img+1)*len(q)]
		lo, hi := gemm.MinMaxF32(xi)
		sB, z := quantRange(lo, hi)
		gemm.QuantizeU8(q, xi, 1/sB, float32(z)+0.5)
		for oc := 0; oc < p.cout; oc++ {
			c0 := oc / coutG * cg
			var bv float32
			if bias != nil {
				bv = bias[oc]
			}
			for oy := 0; oy < p.oh; oy++ {
				for ox := 0; ox < p.ow; ox++ {
					var acc int32
					for ic := 0; ic < cg; ic++ {
						for ky := 0; ky < p.kh; ky++ {
							for kx := 0; kx < p.kw; kx++ {
								v := z
								iy, ix := oy*p.sh+ky*p.dh-p.padT, ox*p.sw+kx*p.dw-p.padL
								if iy >= 0 && iy < p.h && ix >= 0 && ix < p.w {
									v = int32(q[((c0+ic)*p.h+iy)*p.w+ix])
								}
								acc += int32(wq[oc*kdim+(ic*p.kh+ky)*p.kw+kx]) * v
							}
						}
					}
					y[((img*p.cout+oc)*p.oh+oy)*p.ow+ox] = float32(acc-z*rs[oc])*(sA[oc]*sB) + bv
				}
			}
		}
	}
	gemm.ActivateRow(y, y, gemmActivation(p.activation), p.alpha)
	return y
}

// checkConvInt8OrderInvariant runs conv.im2col_int8 on tc with the given
// fused activation and requires every output bit to match
// int8ConvReference: the channel-quad K order, the zero-point channels
// padding each group to whole quads and the vector requantize row may
// change no bit.
func checkConvInt8OrderInvariant(t testing.TB, tc convCase, act string, seed uint64) {
	t.Helper()
	inputs := tc.tensors(seed)
	attrs := tc.attrs()
	attrs["activation"] = act
	if !ByName("conv.im2col_int8").Supports(buildNode(t, "Conv", attrs, inputs...)) {
		t.Skip("geometry unsupported by the int8 tier")
	}
	got := runKernel(t, "conv.im2col_int8", "Conv", attrs, inputs...).Data()
	p, err := resolveConv(buildNode(t, "Conv", attrs, inputs...))
	if err != nil {
		t.Fatal(err)
	}
	var bias []float32
	if tc.bias {
		bias = inputs[2].Data()
	}
	want := int8ConvReference(inputs[0].Data(), inputs[1].Data(), bias, &p)
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s act %q: output %d = %v (%#08x), reference %v (%#08x)", tc.name, act, i, got[i], g, want[i], w)
		}
	}
}

// TestConvInt8OrderInvariant holds conv.im2col_int8 bit for bit to the
// reference on the stem (cin 3 padded to a quad), a 1×1 stride-2, a 3×3
// whose output row is 7 wide, dilation 2 × groups 2 × batch 3 and two
// groups of 3 channels, under every epilogue activation.
func TestConvInt8OrderInvariant(t *testing.T) {
	for i, tc := range resnetPackCases {
		tc.bias = i%2 == 0
		tc.cout = 4 * tc.groups
		for _, act := range []string{"", "relu", "relu6", "leakyrelu"} {
			t.Run(tc.name+"/"+act, func(t *testing.T) {
				checkConvInt8OrderInvariant(t, tc, act, tensor.SeedFromString(tc.name))
			})
		}
	}
}

// FuzzConvInt8OrderInvariant is TestConvInt8OrderInvariant over fuzzed
// geometries: channels per group 1–6, kernel, stride, pads, dilation,
// groups, batch, output channels, bias and activation.
func FuzzConvInt8OrderInvariant(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(30), uint8(30), uint8(48), uint8(4), uint8(255), uint8(0), uint8(0), uint8(1))
	f.Add(uint64(2), uint8(5), uint8(14), uint8(14), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(3), uint8(4), uint8(7), uint8(7), uint8(16), uint8(0), uint8(85), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(4), uint8(1), uint8(11), uint8(13), uint8(16), uint8(1), uint8(170), uint8(4), uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, cin, h, w, k, stride, pad, dil, groups, cout uint8) {
		tc := convCase{name: "fuzz", n: 1 + int(seed%3), cin: int(cin%6) + 1, h: int(h%16) + 1, w: int(w%16) + 1,
			kh: int(k%7) + 1, kw: int(k/7%7) + 1, sh: int(stride%3) + 1, sw: int(stride/3%3) + 1,
			padT: int(pad % 4), padL: int(pad / 4 % 4), padB: int(pad / 16 % 4), padR: int(pad / 64),
			dh: int(dil%3) + 1, dw: int(dil/3%3) + 1, groups: int(groups%3) + 1, bias: seed&8 != 0}
		tc.cin *= tc.groups
		tc.cout = tc.groups * (int(cout%5) + 1)
		if (tc.kh-1)*tc.dh >= tc.h+tc.padT+tc.padB || (tc.kw-1)*tc.dw >= tc.w+tc.padL+tc.padR {
			t.Skip("kernel larger than padded input")
		}
		acts := []string{"", "relu", "relu6", "leakyrelu"}
		checkConvInt8OrderInvariant(t, tc, acts[seed/16%4], seed)
	})
}
