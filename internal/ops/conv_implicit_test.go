package ops

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Differential battery for implicit-GEMM convolution: conv.im2col (the
// virtual B-pack plus fused epilogue) must match conv.im2col_explicit
// (materialised unfold, separate bias/activation sweeps) at ≤ 1e-5
// relative tolerance on every geometry either path claims to support —
// odd shapes, asymmetric padding, stride, dilation, groups, batches —
// under every selectable micro-kernel, single-threaded and through the
// worker pool. The explicit path itself is pinned to conv.direct by
// TestConvKernelEquivalence, so agreement here pins the whole chain.

const implicitTol = 1e-5

// gemmKernelAliases maps extra per-kernel subtest labels to the fp32
// micro-kernel they run. The AVX2 tile also runs under "avx2-6x16", the
// name it had while the tier held a second AVX2 tile, so the subtests
// that pinned it under that name keep it.
var gemmKernelAliases = map[string]string{"avx2-6x16": "avx2"}

// gemmKernelLabels returns the labels the per-kernel subtests run under:
// every selectable micro-kernel's name, then each alias of a selectable
// kernel.
func gemmKernelLabels() []string {
	labels := gemm.KernelNames()
	for alias, name := range gemmKernelAliases {
		if slices.Contains(labels, name) {
			labels = append(labels, alias)
		}
	}
	return labels
}

// withGemmKernel pins the named micro-kernel (or the kernel a label of
// gemmKernelAliases names) for fn, restoring afterwards.
func withGemmKernel(t testing.TB, name string, fn func()) {
	t.Helper()
	if k, ok := gemmKernelAliases[name]; ok {
		name = k
	}
	prev := gemm.KernelName()
	if err := gemm.SetKernel(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := gemm.SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// runConvWorkers executes the named conv kernel on a fresh Ctx with the
// given worker budget (a fresh Ctx also means a fresh prepack cache, so
// panels are always packed under the active micro-kernel).
func runConvWorkers(t testing.TB, kernelName string, workers int, n *graph.Node, inputs []*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	k := ByName(kernelName)
	if k == nil {
		t.Fatalf("kernel %q not registered", kernelName)
	}
	out := tensor.New(n.Outputs[0].Shape...)
	ctx := NewCtx(workers)
	if err := k.Run(ctx, n, inputs, []*tensor.Tensor{out}); err != nil {
		t.Fatalf("kernel %q: %v", kernelName, err)
	}
	return out
}

// relClose reports the first index where got and want differ by more than
// tol relative to max(1, |got|, |want|), or -1.
func relClose(got, want []float32, tol float64) int {
	for i := range want {
		d := float64(got[i]) - float64(want[i])
		if d < 0 {
			d = -d
		}
		scale := 1.0
		for _, v := range []float64{float64(got[i]), float64(want[i])} {
			if v < 0 {
				v = -v
			}
			if v > scale {
				scale = v
			}
		}
		if d > tol*scale {
			return i
		}
	}
	return -1
}

// implicitCases extends the shared convMatrix with geometries that stress
// the implicit pack source specifically: panel boundaries in kdim and
// cols, stride+dilation+asymmetric-padding combinations, grouped batches.
var implicitCases = []convCase{
	{name: "deep-kdim", n: 1, cin: 32, h: 10, w: 10, cout: 9, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1, bias: true},
	{name: "wide-cols", n: 1, cin: 3, h: 26, w: 30, cout: 5, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "stride-dilate-asym", n: 2, cin: 5, h: 13, w: 11, cout: 7, kh: 3, kw: 2, sh: 2, sw: 3, padT: 2, padL: 0, padB: 1, padR: 3, dh: 2, dw: 1, groups: 1, bias: true},
	{name: "grouped-batch", n: 3, cin: 12, h: 9, w: 7, cout: 8, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 4, bias: true},
	{name: "pointwise-batch", n: 4, cin: 6, h: 5, w: 5, cout: 10, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, bias: true},
	{name: "tall-stride", n: 1, cin: 2, h: 40, w: 3, cout: 3, kh: 5, kw: 1, sh: 3, sw: 1, padT: 2, padL: 0, padB: 2, padR: 0, dh: 1, dw: 1, groups: 1},
}

// pointwiseCases are 1×1 geometries at batch 3: stride-1 unpadded ones,
// which flatten to one output row per plane, at output rows shorter (7),
// near (14) and longer (56) than a strip, grouped and ungrouped, and a
// stride-2 one, which must not flatten.
var pointwiseCases = []convCase{
	{name: "pw-7x7-b3", n: 3, cin: 16, h: 7, w: 7, cout: 24, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1, bias: true},
	{name: "pw-14x14-b3-g2", n: 3, cin: 12, h: 14, w: 14, cout: 8, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 2, bias: true},
	{name: "pw-56x56-b3", n: 3, cin: 8, h: 56, w: 56, cout: 16, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "pw-56x56-b3-g4", n: 3, cin: 8, h: 56, w: 56, cout: 8, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 4, bias: true},
	{name: "pw-s2-14x14-b3", n: 3, cin: 6, h: 14, w: 14, cout: 4, kh: 1, kw: 1, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1, bias: true},
}

func implicitBattery() []convCase {
	return append(append(append([]convCase(nil), convMatrix...), implicitCases...), pointwiseCases...)
}

func TestConvImplicitMatchesExplicit(t *testing.T) {
	for _, kn := range gemmKernelLabels() {
		for _, tc := range implicitBattery() {
			for _, workers := range []int{1, 3} {
				for _, act := range []string{"", "relu"} {
					tc, act := tc, act
					name := fmt.Sprintf("%s/%s/workers=%d/act=%s", kn, tc.name, workers, act)
					t.Run(name, func(t *testing.T) {
						withGemmKernel(t, kn, func() {
							attrs := tc.attrs()
							if act != "" {
								attrs["activation"] = act
							}
							inputs := tc.tensors(tensor.SeedFromString(tc.name))
							n := buildNode(t, "Conv", attrs, inputs...)
							want := runConvWorkers(t, "conv.im2col_explicit", 1, n, inputs)
							got := runConvWorkers(t, "conv.im2col", workers, n, inputs)
							if i := relClose(got.Data(), want.Data(), implicitTol); i >= 0 {
								t.Fatalf("implicit diverges from explicit at [%d]: got %v want %v",
									i, got.Data()[i], want.Data()[i])
							}
						})
					})
				}
			}
		}
	}
}

// stridedPackCases are geometries whose strided gather runs are long
// enough to reach GatherTaps' whole vector blocks and wide enough to end
// on the last column of a row, on top of the battery's small ones.
var stridedPackCases = []convCase{
	{name: "stem-like", n: 2, cin: 3, h: 30, w: 45, cout: 4, kh: 7, kw: 7, sh: 2, sw: 2, padT: 3, padL: 3, padB: 3, padR: 3, dh: 1, dw: 1, groups: 1},
	{name: "s2-even-width", n: 1, cin: 2, h: 12, w: 64, cout: 2, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "s2-pointwise", n: 1, cin: 4, h: 9, w: 39, cout: 4, kh: 1, kw: 1, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1},
	{name: "s3-wide", n: 1, cin: 2, h: 10, w: 70, cout: 2, kh: 3, kw: 4, sh: 3, sw: 3, padT: 1, padL: 2, padB: 0, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "s2-dilated", n: 1, cin: 3, h: 21, w: 40, cout: 3, kh: 3, kw: 3, sh: 2, sw: 2, padT: 2, padL: 2, padB: 2, padR: 2, dh: 2, dw: 2, groups: 1},
	{name: "s2-grouped", n: 2, cin: 6, h: 11, w: 37, cout: 6, kh: 3, kw: 3, sh: 1, sw: 2, padT: 1, padL: 0, padB: 1, padR: 2, dh: 1, dw: 1, groups: 3},
}

// walkPackCases are the shapes the padded-plane walk carries state across:
// output rows shorter than a strip (one 32-wide strip spans five 7-wide
// rows), single-column rows, stride-2 stretches of whole vector blocks
// whose last tap is the last element of the last (padded or unpadded)
// plane, where a whole-block load would read past the end, and a grouped
// batch with dilation and asymmetric padding.
var walkPackCases = []convCase{
	{name: "ow7-nr32", n: 1, cin: 4, h: 7, w: 7, cout: 2, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "ow1", n: 2, cin: 3, h: 11, w: 3, cout: 2, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padB: 1, dh: 1, dw: 1, groups: 1},
	{name: "s2-last-row-padded", n: 2, cin: 2, h: 15, w: 15, cout: 2, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "s2-last-row-1x1", n: 2, cin: 3, h: 15, w: 15, cout: 2, kh: 1, kw: 1, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1},
	{name: "b3-g2-dil2-asym", n: 3, cin: 4, h: 10, w: 12, cout: 4, kh: 3, kw: 3, sh: 1, sw: 2, padT: 2, padL: 1, padB: 0, padR: 3, dh: 2, dw: 2, groups: 2},
}

// im2colGroup is group g of image img unfolded by tensor.Im2ColInto: the
// [kdim × oh*ow] matrix every panel must be a block of.
func im2colGroup(x []float32, p *convParams, img, g int) []float32 {
	cinG := p.cin / p.groups
	want := make([]float32, cinG*p.kh*p.kw*p.oh*p.ow)
	tensor.Im2ColInto(want, x[(img*p.cin+g*cinG)*p.h*p.w:], 1, cinG, p.h, p.w,
		p.kh, p.kw, p.sh, p.sw, p.padT, p.padL, p.dh, p.dw, p.oh, p.ow)
	return want
}

// checkPackPanel packs one panel of src's selected group into a poisoned
// buffer and requires it to be want's block in strip layout, bit for bit,
// with zeroed edge-strip padding.
func checkPackPanel(t testing.TB, src *convPackSrc, want []float32, cols, img, pp, jj, kc, nc, nr int) {
	t.Helper()
	dst := make([]float32, kc*((nc+nr-1)/nr)*nr)
	for i := range dst {
		dst[i] = 1234.5
	}
	src.PackPanel(dst, img, pp, jj, kc, nc, nr)
	for j := 0; j < (nc+nr-1)/nr*nr; j++ {
		for k := 0; k < kc; k++ {
			var w float32
			if j < nc {
				w = want[(pp+k)*cols+jj+j]
			}
			if got := dst[(j/nr)*kc*nr+k*nr+j%nr]; math.Float32bits(got) != math.Float32bits(w) {
				t.Fatalf("img %d chan0 %d panel (%d,%d) %dx%d nr %d: [%d][%d] = %v, want %v",
					img, src.chan0, pp, jj, kc, nc, nr, k, j, got, w)
			}
		}
	}
}

// TestPackPanelMatchesIm2Col holds convPackSrc.PackPanel to
// tensor.Im2ColInto bit for bit: every panel of every (image, group), cut
// at several (kc ≤ gemm.MaxPanelK, nc, nr), must be the unfold matrix's
// block in strip layout with zeroed edge-strip padding — on every stride,
// padding, dilation and group geometry of the battery.
func TestPackPanelMatchesIm2Col(t *testing.T) {
	cases := append(append(implicitBattery(), stridedPackCases...), walkPackCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := tc.tensors(tensor.SeedFromString(tc.name))
			p, err := resolveConvRT(buildNode(t, "Conv", tc.attrs(), inputs...), inputs)
			if err != nil {
				t.Fatal(err)
			}
			x := inputs[0].Data()
			cinG := p.cin / p.groups
			kdim, cols := cinG*p.kh*p.kw, p.oh*p.ow
			var src convPackSrc
			src.init(x, &p)
			for img := 0; img < p.n; img++ {
				for g := 0; g < p.groups; g++ {
					want := im2colGroup(x, &p, img, g)
					src.chan0 = g * cinG
					for _, cut := range [][3]int{{gemm.MaxPanelK, cols, 8}, {7, 40, 16}, {5, 100, 32}, {gemm.MaxPanelK, cols, 32}} {
						kcMax, ncMax, nr := cut[0], cut[1], cut[2]
						for pp := 0; pp < kdim; pp += kcMax {
							for jj := 0; jj < cols; jj += ncMax {
								checkPackPanel(t, &src, want, cols, img, pp, jj, min(kcMax, kdim-pp), min(ncMax, cols-jj), nr)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzPackPanelVsIm2Col is the fp32 twin of FuzzPackPanel8VsScalar: it
// draws a geometry and one panel from the fuzz input and holds the
// padded-plane walk to tensor.Im2ColInto bit for bit.
func FuzzPackPanelVsIm2Col(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(255), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(30), uint8(30), uint8(7), uint8(2), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(255), uint8(2))
	f.Add(uint64(3), uint8(4), uint8(11), uint8(13), uint8(3), uint8(2), uint8(2), uint8(2), uint8(2), uint8(5), uint8(9), uint8(6), uint8(10), uint8(1))
	f.Add(uint64(4), uint8(6), uint8(15), uint8(15), uint8(1), uint8(4), uint8(0), uint8(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(255), uint8(0))
	// Pointwise at batch 3: 7×7 whole, 14×14 grouped from mid-row, and a
	// 1×1 stride 2, which keeps its rows.
	f.Add(uint64(2), uint8(4), uint8(6), uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint8(255), uint8(255), uint8(0))
	f.Add(uint64(5), uint8(3), uint8(13), uint8(13), uint8(0), uint8(0), uint8(0), uint8(4), uint8(1), uint8(1), uint8(20), uint8(255), uint8(100), uint8(2))
	f.Add(uint64(8), uint8(2), uint8(13), uint8(13), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint8(5), uint8(255), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, cin, h, w, k, stride, pad, dil, groups, ppb, jjb, kcb, ncb, nrb uint8) {
		tc := convCase{name: "fuzz", n: 1 + int(seed%3), cin: int(cin%8) + 1, h: int(h%20) + 1, w: int(w%20) + 1,
			kh: int(k%7) + 1, kw: int(k/7%7) + 1, sh: int(stride%3) + 1, sw: int(stride/3%3) + 1,
			padT: int(pad % 4), padL: int(pad / 4 % 4), padB: int(pad / 16 % 4), padR: int(pad / 64),
			dh: int(dil%3) + 1, dw: int(dil/3%3) + 1, groups: int(groups%3) + 1}
		tc.cin *= tc.groups
		tc.cout = tc.groups
		if (tc.kh-1)*tc.dh >= tc.h+tc.padT+tc.padB || (tc.kw-1)*tc.dw >= tc.w+tc.padL+tc.padR {
			t.Skip("kernel larger than padded input")
		}
		inputs := tc.tensors(seed)
		p, err := resolveConv(buildNode(t, "Conv", tc.attrs(), inputs...))
		if err != nil {
			t.Fatal(err)
		}
		x := inputs[0].Data()
		g := int(seed/3) % tc.groups
		var src convPackSrc
		src.init(x, &p)
		src.chan0 = g * (p.cin / p.groups)
		kdim := (p.cin / p.groups) * p.kh * p.kw
		cols := p.oh * p.ow
		pp, jj := int(ppb)%kdim, int(jjb)%cols
		kc := min(int(kcb)+1, kdim-pp, gemm.MaxPanelK)
		nc := min(int(ncb)+1, cols-jj)
		nr := []int{8, 16, 32}[nrb%3]
		checkPackPanel(t, &src, im2colGroup(x, &p, p.n-1, g), cols, p.n-1, pp, jj, kc, nc, nr)
	})
}

// TestPointwiseReadsInputInPlace pins that a pointwise conv gathers from
// its input itself: conv.im2col leaves the source aliasing the input with
// no pad planes, over a geometry flattened to one row per plane. The pad
// decision must come from the conv's pads, since the flattened dims
// differ from the input's.
func TestPointwiseReadsInputInPlace(t *testing.T) {
	for _, tc := range pointwiseCases {
		inputs := tc.tensors(tensor.SeedFromString(tc.name))
		n := buildNode(t, "Conv", tc.attrs(), inputs...)
		ctx := NewCtx(1)
		out := tensor.New(n.Outputs[0].Shape...)
		if err := ByName("conv.im2col").Run(ctx, n, inputs, []*tensor.Tensor{out}); err != nil {
			t.Fatal(err)
		}
		s, x := &ctx.convSrc, inputs[0].Data()
		if len(s.pad) != 0 || len(s.x) == 0 || &s.x[0] != &x[0] {
			t.Errorf("%s: source reads a %d-element pad copy, not the input", tc.name, len(s.pad))
		}
		flat := tc.sh == 1 && tc.sw == 1
		if got := s.hp == 1 && s.wp == tc.h*tc.w && s.ow == tc.h*tc.w; got != flat {
			t.Errorf("%s: geometry hp %d wp %d ow %d, flattened %v, want %v", tc.name, s.hp, s.wp, s.ow, got, flat)
		}
	}
}

// TestConvImplicitRuntimeBatchSlices mirrors how sessions bind batched
// plans: the node declares Nmax while the bound tensors carry any
// 1 ≤ n ≤ Nmax, and the kernel must follow the tensors.
func TestConvImplicitRuntimeBatchSlices(t *testing.T) {
	const nmax = 4
	tc := convCase{name: "rtbatch", n: nmax, cin: 5, h: 9, w: 8, cout: 6, kh: 3, kw: 3,
		sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1, bias: true}
	full := tc.tensors(77)
	node := buildNode(t, "Conv", tc.attrs(), full...)
	perImage := tc.cin * tc.h * tc.w
	for n := 1; n <= nmax; n++ {
		x := tensor.FromSlice(full[0].Data()[:n*perImage], n, tc.cin, tc.h, tc.w)
		inputs := []*tensor.Tensor{x, full[1], full[2]}
		outShape := append([]int(nil), node.Outputs[0].Shape...)
		outShape[0] = n
		want := tensor.New(outShape...)
		got := tensor.New(outShape...)
		if err := ByName("conv.im2col_explicit").Run(NewCtx(1), node, inputs, []*tensor.Tensor{want}); err != nil {
			t.Fatal(err)
		}
		if err := ByName("conv.im2col").Run(NewCtx(3), node, inputs, []*tensor.Tensor{got}); err != nil {
			t.Fatal(err)
		}
		if i := relClose(got.Data(), want.Data(), implicitTol); i >= 0 {
			t.Fatalf("batch %d: implicit diverges at [%d]: got %v want %v", n, i, got.Data()[i], want.Data()[i])
		}
	}
}

// FuzzConvImplicitVsExplicit explores conv geometry beyond the fixed
// battery: random shapes, strides, dilations, asymmetric padding, group
// counts, batch sizes, bias and fused activations, through both the
// single-threaded and pool paths of every selectable kernel.
func FuzzConvImplicitVsExplicit(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(4), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), true, uint8(1))
	f.Add(uint64(9), uint8(8), uint8(8), uint8(9), uint8(7), uint8(3), uint8(2), uint8(2), uint8(3), uint8(2), uint8(0), uint8(2), uint8(1), uint8(2), false, uint8(3))
	f.Add(uint64(5), uint8(6), uint8(6), uint8(12), uint8(5), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(6), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, cinB, coutB, hB, wB, khB, kwB, shB, swB, padA, padC, dhB, dwB, groupB uint8, bias bool, nB uint8) {
		tc := convCase{
			n:    int(nB%4) + 1,
			cin:  int(cinB%12) + 1,
			h:    int(hB%20) + 1,
			w:    int(wB%20) + 1,
			cout: int(coutB%12) + 1,
			kh:   int(khB%5) + 1,
			kw:   int(kwB%5) + 1,
			sh:   int(shB%3) + 1,
			sw:   int(swB%3) + 1,
			padT: int(padA % 3), padL: int(padC % 3),
			padB: int(padC % 2), padR: int(padA % 2),
			dh: int(dhB%2) + 1, dw: int(dwB%2) + 1,
			groups: 1,
			bias:   bias,
		}
		// Snap channels onto a valid group count.
		g := int(groupB%4) + 1
		tc.cin, tc.cout = tc.cin*g, tc.cout*g
		tc.groups = g
		if (tc.kh-1)*tc.dh+1 > tc.h+tc.padT+tc.padB || (tc.kw-1)*tc.dw+1 > tc.w+tc.padL+tc.padR {
			t.Skip("kernel exceeds padded input")
		}
		attrs := tc.attrs()
		if seed%3 == 0 {
			attrs["activation"] = []string{"relu", "relu6", "leakyrelu"}[(seed/3)%3]
			attrs["alpha"] = 0.1
		}
		inputs := tc.tensors(seed)
		n := buildNode(t, "Conv", attrs, inputs...)
		want := runConvWorkers(t, "conv.im2col_explicit", 1, n, inputs)
		for _, kn := range gemm.KernelNames() {
			withGemmKernel(t, kn, func() {
				for _, workers := range []int{1, 3} {
					got := runConvWorkers(t, "conv.im2col", workers, n, inputs)
					if i := relClose(got.Data(), want.Data(), implicitTol); i >= 0 {
						t.Fatalf("kernel %s workers %d: implicit diverges at [%d]: got %v want %v (case %+v)",
							kn, workers, i, got.Data()[i], want.Data()[i], tc)
					}
				}
			})
		}
	})
}
