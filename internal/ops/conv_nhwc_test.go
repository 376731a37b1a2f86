package ops

import (
	"fmt"
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// permute4 returns a copy of the rank-4 tensor with axes permuted:
// out shape[i] = in shape[perm[i]].
func permute4(t *tensor.Tensor, perm []int) *tensor.Tensor {
	s := t.Shape()
	out := tensor.New(s[perm[0]], s[perm[1]], s[perm[2]], s[perm[3]])
	var idx [4]int
	for a := 0; a < s[0]; a++ {
		for b := 0; b < s[1]; b++ {
			for c := 0; c < s[2]; c++ {
				for d := 0; d < s[3]; d++ {
					idx = [4]int{a, b, c, d}
					out.Set(t.At(a, b, c, d), idx[perm[0]], idx[perm[1]], idx[perm[2]], idx[perm[3]])
				}
			}
		}
	}
	return out
}

func nchwToNHWC(t *tensor.Tensor) *tensor.Tensor { return permute4(t, []int{0, 2, 3, 1}) }
func nhwcToNCHW(t *tensor.Tensor) *tensor.Tensor { return permute4(t, []int{0, 3, 1, 2}) }

// nhwcTol is the acceptance bound for the layout differential: NHWC and
// NCHW accumulate in different orders, so bit-equality is out, but both
// are fp32 sums of the same terms.
const nhwcTol = 1e-5

// TestConvNHWCMatchesNCHW is the layout differential battery: every NHWC
// conv kernel must agree with the NCHW conv.direct reference on every
// geometry it supports — across the full conv matrix, every selectable
// GEMM micro-kernel, and worker budgets 1 and 3.
func TestConvNHWCMatchesNCHW(t *testing.T) {
	for _, kn := range gemmKernelLabels() {
		for _, tc := range implicitBattery() {
			for _, workers := range []int{1, 3} {
				for _, act := range []string{"", "relu"} {
					tc, act, workers := tc, act, workers
					name := fmt.Sprintf("%s/%s/workers=%d/act=%s", kn, tc.name, workers, act)
					t.Run(name, func(t *testing.T) {
						withGemmKernel(t, kn, func() {
							attrs := tc.attrs()
							if act != "" {
								attrs["activation"] = act
							}
							inputs := tc.tensors(tensor.SeedFromString("nhwc-" + tc.name))
							ref := runKernel(t, "conv.direct", "Conv", attrs, inputs...)

							nhwcAttrs := tc.attrs()
							nhwcAttrs["layout"] = "nhwc"
							if act != "" {
								nhwcAttrs["activation"] = act
							}
							nhwcIn := append([]*tensor.Tensor{nchwToNHWC(inputs[0])}, inputs[1:]...)
							n := buildNode(t, "Conv", nhwcAttrs, nhwcIn...)
							for _, k := range ForOp("Conv") {
								if IsQuantized(k) || !k.Supports(n) {
									continue
								}
								got := nhwcToNCHW(runConvWorkers(t, k.Name(), workers, n, nhwcIn))
								if i := relClose(got.Data(), ref.Data(), nhwcTol); i >= 0 {
									t.Errorf("%s diverges from NCHW conv.direct at %d: got %g want %g",
										k.Name(), i, got.Data()[i], ref.Data()[i])
								}
							}
						})
					})
				}
			}
		}
	}
}

// TestConvNHWCSrcNCHW exercises the folded-boundary-transpose form: the
// node computes an NHWC output while its input stays NCHW in memory
// (src_layout "nchw"), the shape a fold at the layout frontier produces.
func TestConvNHWCSrcNCHW(t *testing.T) {
	for _, tc := range implicitBattery() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			inputs := tc.tensors(tensor.SeedFromString("srcnchw-" + tc.name))
			ref := runKernel(t, "conv.direct", "Conv", tc.attrs(), inputs...)

			attrs := tc.attrs()
			attrs["layout"] = "nhwc"
			attrs["src_layout"] = "nchw"
			n := buildNode(t, "Conv", attrs, inputs...)
			ran := 0
			for _, k := range ForOp("Conv") {
				if IsQuantized(k) || !k.Supports(n) {
					continue
				}
				got := nhwcToNCHW(runConvWorkers(t, k.Name(), 1, n, inputs))
				if i := relClose(got.Data(), ref.Data(), nhwcTol); i >= 0 {
					t.Errorf("%s diverges at %d: got %g want %g",
						k.Name(), i, got.Data()[i], ref.Data()[i])
				}
				ran++
			}
			if ran == 0 {
				t.Fatal("no kernel supports src_layout=nchw node")
			}
		})
	}
}

// TestConvNHWCScratchReuseOff pins the NHWC kernels under per-call
// scratch allocation (DisableScratchReuse), with weights packed on a
// cache miss in a context that starts without a cache.
func TestConvNHWCScratchReuseOff(t *testing.T) {
	for _, tc := range []convCase{convMatrix[1], convMatrix[7], convMatrix[8], implicitCases[3]} {
		inputs := tc.tensors(tensor.SeedFromString("nhwc-noreuse-" + tc.name))
		ref := runKernel(t, "conv.direct", "Conv", tc.attrs(), inputs...)
		attrs := tc.attrs()
		attrs["layout"] = "nhwc"
		nhwcIn := append([]*tensor.Tensor{nchwToNHWC(inputs[0])}, inputs[1:]...)
		n := buildNode(t, "Conv", attrs, nhwcIn...)
		for _, kn := range []string{"conv.im2col_nhwc", "conv.depthwise_nhwc"} {
			k := ByName(kn)
			if !k.Supports(n) {
				continue
			}
			out := tensor.New(n.Outputs[0].Shape...)
			ctx := NewCtx(1)
			ctx.DisableScratchReuse = true
			if err := k.Run(ctx, n, nhwcIn, []*tensor.Tensor{out}); err != nil {
				t.Fatalf("%s/%s: %v", kn, tc.name, err)
			}
			got := nhwcToNCHW(out)
			if i := relClose(got.Data(), ref.Data(), nhwcTol); i >= 0 {
				t.Errorf("%s/%s diverges at %d: got %g want %g",
					kn, tc.name, i, got.Data()[i], ref.Data()[i])
			}
		}
	}
}

// TestConvNHWCSupportMatrix pins the NHWC kernel routing: depthwise NHWC
// nodes go to conv.depthwise_nhwc, dense ones to conv.im2col_nhwc, and
// every NCHW-only kernel refuses NHWC nodes.
func TestConvNHWCSupportMatrix(t *testing.T) {
	dw := convMatrix[8] // depthwise
	attrs := dw.attrs()
	attrs["layout"] = "nhwc"
	in := dw.tensors(7)
	in[0] = nchwToNHWC(in[0])
	n := buildNode(t, "Conv", attrs, in...)
	if !ByName("conv.depthwise_nhwc").Supports(n) {
		t.Fatal("conv.depthwise_nhwc should support depthwise NHWC node")
	}
	if ByName("conv.im2col_nhwc").Supports(n) {
		t.Fatal("conv.im2col_nhwc should reject depthwise NHWC node")
	}
	for _, kn := range []string{"conv.im2col", "conv.im2col_explicit", "conv.depthwise",
		"conv.group_im2col", "conv.spatialpack", "conv.winograd", "conv.im2col_int8"} {
		if ByName(kn).Supports(n) {
			t.Fatalf("%s should reject NHWC node", kn)
		}
	}

	plain := convMatrix[1] // 3x3 pad1 stride1 ungrouped
	attrs = plain.attrs()
	attrs["layout"] = "nhwc"
	in = plain.tensors(8)
	in[0] = nchwToNHWC(in[0])
	n = buildNode(t, "Conv", attrs, in...)
	if !ByName("conv.im2col_nhwc").Supports(n) {
		t.Fatal("conv.im2col_nhwc should support dense NHWC node")
	}
	if ByName("conv.depthwise_nhwc").Supports(n) {
		t.Fatal("conv.depthwise_nhwc should reject dense NHWC node")
	}
}

// TestPoolPadNHWCMatchesNCHW runs the layout differential over the
// non-conv NHWC kernels: pooling, global pooling and padding.
func TestPoolPadNHWCMatchesNCHW(t *testing.T) {
	r := tensor.NewRNG(11)
	x := tensor.Rand(r, -1, 1, 2, 5, 9, 8) // NCHW
	xh := nchwToNHWC(x)

	cases := []struct {
		op, kernel string
		attrs      graph.Attrs
	}{
		{"MaxPool", "maxpool.direct", graph.Attrs{"kernel": []int{3, 3}, "strides": []int{2, 2}, "pads": []int{1, 1, 1, 1}}},
		{"MaxPool", "maxpool.direct", graph.Attrs{"kernel": []int{2, 2}, "strides": []int{2, 2}, "pads": []int{0, 0, 0, 0}}},
		{"AveragePool", "avgpool.direct", graph.Attrs{"kernel": []int{3, 3}, "strides": []int{1, 1}, "pads": []int{1, 1, 1, 1}}},
		{"AveragePool", "avgpool.direct", graph.Attrs{"kernel": []int{3, 3}, "strides": []int{2, 2}, "pads": []int{1, 1, 1, 1}, "count_include_pad": true}},
		{"GlobalAveragePool", "globalavgpool.direct", graph.Attrs{}},
		{"Pad", "pad.copy", graph.Attrs{"pads": []int{1, 2, 3, 0}}},
		{"Pad", "pad.copy", graph.Attrs{"pads": []int{0, 1, 0, 1}, "value": 2.5}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%v", tc.kernel, tc.attrs)
		ref := runKernel(t, tc.kernel, tc.op, tc.attrs, x)
		nhwcAttrs := graph.Attrs{"layout": "nhwc"}
		for k, v := range tc.attrs {
			nhwcAttrs[k] = v
		}
		got := nhwcToNCHW(runKernel(t, tc.kernel, tc.op, nhwcAttrs, xh))
		if i := relClose(got.Data(), ref.Data(), nhwcTol); i >= 0 {
			t.Errorf("%s diverges at %d: got %g want %g", name, i, got.Data()[i], ref.Data()[i])
		}
	}
}

func TestTransposeCopy(t *testing.T) {
	// Known values: [1,2,2,2] NCHW→NHWC.
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 1, 2, 2, 2)
	got := runKernel(t, "transpose.copy", "Transpose", graph.Attrs{"perm": []int{0, 2, 3, 1}}, x)
	want := []float32{1, 5, 2, 6, 3, 7, 4, 8}
	if !tensor.ShapeEq(got.Shape(), []int{1, 2, 2, 2}) {
		t.Fatalf("shape = %v", got.Shape())
	}
	for i, v := range got.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}

	// Rank-4 round trip against the reference permute helper.
	r := tensor.NewRNG(3)
	x = tensor.Rand(r, -1, 1, 2, 3, 4, 5)
	fw := runKernel(t, "transpose.copy", "Transpose", graph.Attrs{"perm": []int{0, 2, 3, 1}}, x)
	if tensor.MaxAbsDiff(fw, nchwToNHWC(x)) != 0 {
		t.Fatal("NCHW->NHWC transpose mismatch")
	}
	bk := runKernel(t, "transpose.copy", "Transpose", graph.Attrs{"perm": []int{0, 3, 1, 2}}, fw)
	if tensor.MaxAbsDiff(bk, x) != 0 {
		t.Fatal("transpose round trip not identity")
	}

	// Rank-2 matrix transpose (strided inner axis).
	m := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	mt := runKernel(t, "transpose.copy", "Transpose", graph.Attrs{"perm": []int{1, 0}}, m)
	wantMT := []float32{1, 4, 2, 5, 3, 6}
	if !tensor.ShapeEq(mt.Shape(), []int{3, 2}) {
		t.Fatalf("shape = %v", mt.Shape())
	}
	for i, v := range mt.Data() {
		if v != wantMT[i] {
			t.Fatalf("mt[%d] = %v, want %v", i, v, wantMT[i])
		}
	}
}

// FuzzLayoutDifferential drives randomized conv geometries through the
// NHWC tier and checks them against the NCHW direct reference.
func FuzzLayoutDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(1), uint8(0), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(6), uint8(6), uint8(2), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(3), uint8(8), uint8(8), uint8(0), uint8(0), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, chb, cob, kb, sb, pb, gb uint8) {
		cin := int(chb%8) + 1
		cout := int(cob%8) + 1
		k := []int{1, 2, 3, 5}[kb%4]
		s := int(sb%3) + 1
		pad := int(pb % 3)
		groups := 1
		switch gb % 3 {
		case 1: // depthwise
			cout = cin
			groups = cin
		case 2: // grouped
			cin, cout = cin*2, cout*2
			groups = 2
		}
		h := 9
		if h+2*pad < k {
			t.Skip()
		}
		tc := convCase{n: 2, cin: cin, h: h, w: h + 1, cout: cout, kh: k, kw: k,
			sh: s, sw: s, padT: pad, padL: pad, padB: pad, padR: pad,
			dh: 1, dw: 1, groups: groups, bias: true}
		inputs := tc.tensors(seed)
		ref := runKernel(t, "conv.direct", "Conv", tc.attrs(), inputs...)

		attrs := tc.attrs()
		attrs["layout"] = "nhwc"
		nhwcIn := append([]*tensor.Tensor{nchwToNHWC(inputs[0])}, inputs[1:]...)
		n := buildNode(t, "Conv", attrs, nhwcIn...)
		for _, kn := range []string{"conv.im2col_nhwc", "conv.depthwise_nhwc", "conv.direct"} {
			k := ByName(kn)
			if !k.Supports(n) {
				continue
			}
			got := nhwcToNCHW(runConvWorkers(t, kn, 1, n, nhwcIn))
			if i := relClose(got.Data(), ref.Data(), nhwcTol); i >= 0 {
				t.Errorf("%s diverges at %d: got %g want %g", kn, i, got.Data()[i], ref.Data()[i])
			}
		}
	})
}
