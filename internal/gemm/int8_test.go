package gemm

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orpheus/internal/tensor"
)

// Differential tests for the int8 tier. The SIMD kernels must match the
// pure-Go int8 kernel *bit-exactly*: all kernels compute the same int32
// accumulators (int32 addition is associative and the value contract rules
// out VPMADDUBSW saturation), and the requantize epilogue is shared Go
// code, so the fp32 outputs must be identical floats. The pure-Go kernel
// is in turn pinned to a naive int32 reference computed straight from the
// quantized operands.

// withKernel8 runs fn with the named int8 kernel active, restoring the
// previous selection afterwards.
func withKernel8(t testing.TB, name string, fn func()) {
	t.Helper()
	prev := Kernel8Name()
	if err := SetKernel8(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetKernel8(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// simd8KernelNames returns the selectable int8 kernels other than the
// pure-Go reference, skipping the test when none exist.
func simd8KernelNames(t testing.TB) []string {
	var names []string
	for _, n := range Kernel8Names() {
		if n != "go" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		t.Skip("no int8 SIMD kernels selectable on this CPU/build")
	}
	return names
}

// quantU8Test quantizes v with scale s and zero point z, clamping to
// [0, 255] — the test's activation quantizer, mirroring the ops-layer one.
func quantU8Test(v, s float32, z int32) byte {
	q := int32(v/s + float32(z) + 0.5)
	if q < 0 {
		q = 0
	} else if q > 255 {
		q = 255
	}
	return byte(q)
}

// quantParamsTest derives an asymmetric u8 scale/zero-point from a value
// range, always covering zero so padding quantizes exactly.
func quantParamsTest(lo, hi float32) (float32, int32) {
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		return 1, 0
	}
	s := (hi - lo) / 255
	z := int32(-lo/s + 0.5)
	if z < 0 {
		z = 0
	} else if z > 255 {
		z = 255
	}
	return s, z
}

// testSrc8 is a PackSrc8 over a materialised fp32 B (images × k×n
// row-major), quantizing per image with precomputed params.
type testSrc8 struct {
	b      []float32
	k, n   int
	stride int // elements between images
	scales []float32
	zeros  []int32
}

func newTestSrc8(b []float32, k, n, images, stride int) *testSrc8 {
	s := &testSrc8{b: b, k: k, n: n, stride: stride}
	s.scales = make([]float32, images)
	s.zeros = make([]int32, images)
	for img := 0; img < images; img++ {
		lo, hi := float32(0), float32(0)
		for i := 0; i < k*n; i++ {
			v := b[img*stride+i]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		s.scales[img], s.zeros[img] = quantParamsTest(lo, hi)
	}
	return s
}

// at returns the quantized byte for element (p, j) of image img.
func (s *testSrc8) at(img, p, j int) byte {
	return quantU8Test(s.b[img*s.stride+p*s.n+j], s.scales[img], s.zeros[img])
}

// PackPanel8 implements PackSrc8 in the documented k-quad layout.
func (s *testSrc8) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	kcq4 := (kc + 3) / 4 * 4
	need := (nc + nr - 1) / nr * nr * kcq4
	for i := range dst[:need] {
		dst[i] = 0
	}
	for j := 0; j < nc; j++ {
		strip, jl := j/nr, j%nr
		base := strip * nr * kcq4
		for p := 0; p < kc; p++ {
			dst[base+(p/4)*nr*4+jl*4+p%4] = s.at(img, pp+p, jj+j)
		}
	}
}

// int8Case is one CallInt8 shape in the differential battery.
type int8Case struct {
	m, n, k int
	batch   int
	padC    int
	act     Activation
	bias    bool
	name    string // the subtest name, when not the one String derives
}

var int8Cases = []int8Case{
	{m: 1, n: 1, k: 1},
	{m: 3, n: 5, k: 7, bias: true},
	{m: 4, n: 8, k: 4, act: ActReLU},
	{m: 8, n: 16, k: 8},
	{m: 16, n: 16, k: 12}, // one vnni tile
	{m: 7, n: 9, k: 5, act: ActReLU6, bias: true},
	{m: 9, n: 17, k: 3},   // one past tile boundaries
	{m: 16, n: 24, k: 32}, // full tiles, no tails
	{m: 5, n: 8, k: 0, bias: true, act: ActReLU},
	{m: 63, n: 65, k: 127, act: ActLeakyReLU, bias: true},
	{m: 33, n: 7, k: 129},
	{m: 130, n: 258, k: 300, bias: true, act: ActReLU}, // crosses every macro block
	{m: 200, n: 12, k: 500},
	{m: 5, n: 6, k: 9, batch: 3, bias: true},
	{m: 8, n: 16, k: 18, batch: 4, padC: 5, act: ActReLU},
	{m: 130, n: 36, k: 40, batch: 2, padC: 1},
	// Dense layers: one one-pixel image per sample, so StrideC = m lays
	// the batch out as the row-major samples×m output. The named ones
	// keep the subtest names they had when a dense layer ran as a single
	// call of n = samples columns, transposed (_tc) or quantized per
	// column (_cq).
	{m: 11, n: 1, k: 21, batch: 13, bias: true, act: ActReLU, name: "m11_n13_k21_tc"},
	{m: 64, n: 1, k: 130, batch: 9, name: "m64_n9_k130_tc"},
	{m: 17, n: 1, k: 23, batch: 19, act: ActLeakyReLU, name: "m17_n19_k23_cq"},
	{m: 16, n: 1, k: 12, batch: 9, act: ActReLU6, bias: true, name: "m16_n9_k12_cq"},
	{m: 12, n: 1, k: 8, batch: 7, act: ActLeakyReLU, name: "m12_n7_k8_tc"},
	{m: 31, n: 1, k: 17, batch: 15, act: ActReLU, name: "m31_n15_k17_cq"},
	{m: 33, n: 1, k: 49, batch: 17, bias: true, name: "m33_n17_k49_tc"},
	{m: 150, n: 1, k: 33, batch: 3},                  // a dense layer at batch 3, K not a multiple of 4
	{m: 300, n: 20, k: 260, act: ActLeakyReLU},       // three M-tiles in one group
	{m: 520, n: 530, k: 9, bias: true, act: ActReLU}, // group narrows the column block
	// 16-row/16-column tile edges; odd k padding to an odd quad count.
	{m: 15, n: 15, k: 9},
	{m: 16, n: 16, k: 11, bias: true},
	{m: 17, n: 17, k: 19, act: ActReLU},
	{m: 31, n: 49, k: 27, bias: true, act: ActReLU6},
	{m: 33, n: 16, k: 41},
	{m: 16, n: 49, k: 11, batch: 2, padC: 3},
	// The amx kernel's paths. A k-panel is kd quads deep, run as whole
	// steps of 16 quads and a tail of kd mod 16: here 0 (K = 64), 1
	// (K = 68, and resnet-18's stem, K = 196), and 15 (K = 60, K = 124).
	// Its 16-row strips run in pairs and an odd count ends on one strip
	// (M = 48; resnet-18's fc, M = 1000, N = 1); K > 256 accumulates later
	// k-panels in the accumulator. Every case also runs on pool3.
	{m: 32, n: 16, k: 64},
	{m: 48, n: 20, k: 68, bias: true},
	{m: 48, n: 33, k: 60, act: ActReLU},
	{m: 17, n: 5, k: 124},
	{m: 64, n: 49, k: 196, bias: true, act: ActReLU},
	{m: 1000, n: 1, k: 512, bias: true},
	{m: 1000, n: 1, k: 196, batch: 3},
	{m: 48, n: 40, k: 452, act: ActReLU},
	{m: 80, n: 30, k: 196, batch: 3, bias: true},
}

func (ic int8Case) String() string {
	if ic.name != "" {
		return ic.name
	}
	s := fmt.Sprintf("m%d_n%d_k%d", ic.m, ic.n, ic.k)
	if ic.batch > 1 {
		s += fmt.Sprintf("_b%d", ic.batch)
	}
	return s
}

// int8Buffers builds the weights (within the [-63, 63] contract), the fp32
// activations and the per-row metadata for one case.
func int8Buffers(ic int8Case, seed uint64) (a []int8, scaleA []float32, rowSum []int32, b []float32, bias []float32) {
	r := tensor.NewRNG(seed)
	a = make([]int8, ic.m*ic.k)
	for i := range a {
		a[i] = int8(r.Intn(127)) - 63
	}
	scaleA = make([]float32, ic.m)
	for i := range scaleA {
		scaleA[i] = r.Uniform(0.001, 0.05)
	}
	rowSum = make([]int32, ic.m)
	RowSumsInt8(rowSum, a, ic.m, ic.k)
	images := ic.batch
	if images < 2 {
		images = 1
	}
	b = make([]float32, images*ic.k*ic.n)
	for i := range b {
		b[i] = r.Uniform(-2, 3)
	}
	bias = nil
	if ic.bias {
		bias = make([]float32, ic.m)
		for i := range bias {
			bias[i] = r.Uniform(-1, 1)
		}
	}
	return
}

// buildCall assembles the CallInt8 for one case over shared buffers and a
// fresh C, with A prepacked under the active int8 kernel.
func buildCall(ic int8Case, a []int8, scaleA []float32, rowSum []int32, src *testSrc8, bias []float32) CallInt8 {
	images := 1
	if ic.batch > 1 {
		images = ic.batch
	}
	cLen := ic.m * ic.n
	c := CallInt8{
		PackedA: prepackTestA(a, ic), B: src, M: ic.m, N: ic.n, K: ic.k,
		ScaleA: scaleA, RowSum: rowSum,
		BScale: src.scales, BZero: src.zeros,
		BiasRow: bias, Act: ic.act, Alpha: 0.1,
	}
	if ic.batch > 1 {
		c.Batch = ic.batch
		c.StrideC = ic.m*ic.n + ic.padC
		cLen = (images-1)*c.StrideC + ic.m*ic.n
	}
	c.C = make([]float32, cLen)
	return c
}

// prepackTestA packs the case's weights under the active int8 kernel; a
// K = 0 call has no panels.
func prepackTestA(a []int8, ic int8Case) []int8 {
	if ic.k == 0 {
		return nil
	}
	return PrepackAInt8(a, ic.m, ic.k)
}

// storeTwoPass is the requantize epilogue in its original two-pass
// form — requantize a row, then sweep it again with applyActivationRow —
// kept as the oracle for store's fused single-pass loops.
func (c *CallInt8) storeTwoPass(acc []int32, ldc, img, ii, jj, mc, nc int) {
	base := img*c.StrideC + jj
	for r := 0; r < mc; r++ {
		row := c.C[base+(ii+r)*c.N : base+(ii+r)*c.N+nc]
		sA := c.ScaleA[ii+r]
		rs := c.RowSum[ii+r]
		var bv float32
		if c.BiasRow != nil {
			bv = c.BiasRow[ii+r]
		}
		arow := acc[r*ldc : r*ldc+nc]
		s := sA * c.BScale[img]
		comp := c.BZero[img] * rs
		for i, a := range arow {
			row[i] = float32(a-comp)*s + bv
		}
		applyActivationRow(row, c.Act, c.Alpha)
	}
}

// refInt8 computes the expected output from first principles: a naive
// int32 accumulation over the quantized operands, then the two-pass
// requantize epilogue over the full matrix.
func refInt8(c *CallInt8, ic int8Case, a []int8, src *testSrc8) []float32 {
	images := c.images()
	want := make([]float32, len(c.C))
	ref := *c
	ref.C = want
	acc := make([]int32, ic.m*ic.n)
	for img := 0; img < images; img++ {
		for r := 0; r < ic.m; r++ {
			for j := 0; j < ic.n; j++ {
				var s int32
				for p := 0; p < ic.k; p++ {
					s += int32(a[r*ic.k+p]) * int32(src.at(img, p, j))
				}
				acc[r*ic.n+j] = s
			}
		}
		ref.storeTwoPass(acc, ic.n, img, 0, 0, ic.m, ic.n)
	}
	return want
}

// int8Variant selects the execution mode: serial or on the pool, with
// PackedA exactly sized or the head of a longer buffer whose tail is
// poison, as ops lays a grouped conv's panels back to back.
type int8Variant struct {
	name    string
	workers int
	tail    bool
}

// The tail variants keep the names "raw" and "pool3" they had when
// CallInt8 also took an unpacked A, so the battery's subtest names hold.
var int8Variants = []int8Variant{
	{name: "raw", tail: true},
	{name: "packedA"},
	{name: "pool3", workers: 3, tail: true},
	{name: "pool3-packedA", workers: 3},
}

// runInt8Call executes the call under the active kernel, prepacking under
// that same kernel.
func runInt8Call(c CallInt8, ic int8Case, a []int8, v int8Variant) []float32 {
	c.PackedA = prepackTestA(a, ic)
	if v.tail && c.PackedA != nil {
		buf := slices.Repeat([]int8{63}, 2*len(c.PackedA))
		copy(buf, c.PackedA)
		c.PackedA = buf
	}
	var ctx Context
	if v.workers > 0 {
		Shared().RunInt8(&ctx, c, v.workers)
	} else {
		ctx.RunInt8(c)
	}
	return c.C
}

func TestInt8KernelDifferential(t *testing.T) {
	kernels := append([]string{}, Kernel8Names()...)
	for _, ic := range int8Cases {
		a, scaleA, rowSum, b, bias := int8Buffers(ic, uint64(ic.m*1009+ic.n*31+ic.k))
		images := 1
		if ic.batch > 1 {
			images = ic.batch
		}
		src := newTestSrc8(b, ic.k, ic.n, images, ic.k*ic.n)
		call := buildCall(ic, a, scaleA, rowSum, src, bias)
		want := refInt8(&call, ic, a, src)
		for _, kn := range kernels {
			for _, v := range int8Variants {
				t.Run(fmt.Sprintf("%s/%s/%s", kn, ic, v.name), func(t *testing.T) {
					var got []float32
					withKernel8(t, kn, func() {
						got = runInt8Call(call, ic, a, v)
					})
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("kernel %s diverges from int32 reference at C[%d]: got %v want %v",
								kn, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// countingSrc8 wraps a PackSrc8 and counts the requests per panel.
type countingSrc8 struct {
	PackSrc8
	panelCounts
}

func (s *countingSrc8) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	s.add(img, pp, jj)
	s.PackSrc8.PackPanel8(dst, img, pp, jj, kc, nc, nr)
}

// TestInt8PacksEachPanelOnce holds the loop order to its point: with four
// M-tiles (M = 512) a serial call asks its source for every (img, pp, jj)
// panel exactly once, covering the whole K×N extent of each image, and
// pooled runs — which may split M to feed their workers — ask once per row
// group and still produce a C bit-identical to the serial one.
func TestInt8PacksEachPanelOnce(t *testing.T) {
	for _, ic := range []int8Case{
		{m: 512, n: 49, k: 600, bias: true, act: ActReLU},
		{m: 512, n: 700, k: 300, batch: 2},
	} {
		t.Run(ic.String(), func(t *testing.T) {
			a, scaleA, rowSum, b, bias := int8Buffers(ic, 99)
			images := max(ic.batch, 1)
			src := &countingSrc8{PackSrc8: newTestSrc8(b, ic.k, ic.n, images, ic.k*ic.n)}
			call := buildCall(ic, a, scaleA, rowSum, src.PackSrc8.(*testSrc8), bias)
			call.B = src
			grid := func(workers int) unitGrid {
				return blocking(ic.m, ic.n, images, workers, int8Kernels.get().mc)
			}
			var ctx Context
			ctx.RunInt8(call)
			src.check(t, "serial", grid(1), ic.k)
			serial := append([]float32(nil), call.C...)
			pool := NewPool(4)
			defer pool.Close()
			for _, workers := range []int{2, 4} {
				for i := range call.C {
					call.C[i] = -1
				}
				pool.RunInt8(&ctx, call, workers)
				src.check(t, fmt.Sprintf("workers=%d", workers), grid(workers), ic.k)
				sameBits(t, fmt.Sprintf("workers=%d", workers), call.C, serial)
			}
		})
	}
}

// TestInt8KernelSaturationEdge drives the exact worst case of the value
// contract — every weight at ±63, every activation byte at 255 — so any
// hidden VPMADDUBSW int16 saturation would surface as a mismatch against
// the exact int32 reference.
func TestInt8KernelSaturationEdge(t *testing.T) {
	const m, n, k = 16, 32, 259 // odd k: exercises the quad tail
	a := make([]int8, m*k)
	for i := range a {
		if i%2 == 0 {
			a[i] = 63
		} else {
			a[i] = -63
		}
	}
	// Activations far outside the quant range clamp to 255 (lo=0 keeps the
	// zero point at 0, so every positive value saturates the u8 range).
	b := make([]float32, k*n)
	for i := range b {
		b[i] = 1e6
	}
	scaleA := make([]float32, m)
	for i := range scaleA {
		scaleA[i] = 0.01
	}
	rowSum := make([]int32, m)
	RowSumsInt8(rowSum, a, m, k)
	src := newTestSrc8(b, k, n, 1, k*n)
	ic := int8Case{m: m, n: n, k: k}
	call := buildCall(ic, a, scaleA, rowSum, src, nil)
	want := refInt8(&call, ic, a, src)
	for _, kn := range Kernel8Names() {
		t.Run(kn, func(t *testing.T) {
			var got []float32
			withKernel8(t, kn, func() {
				got = runInt8Call(call, ic, a, int8Variants[0])
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("kernel %s saturation edge diverges at C[%d]: got %v want %v", kn, i, got[i], want[i])
				}
			}
		})
	}
}

// TestInt8CallNeedsPackedA pins that prepacked panels are the only A
// operand: a call with K > 0 and no PackedA panics in validate, while a
// K = 0 call, which reads no A, runs its epilogue without one.
func TestInt8CallNeedsPackedA(t *testing.T) {
	const m, n = 4, 8
	call := CallInt8{B: newTestSrc8(make([]float32, 8*n), 8, n, 1, 8*n), C: make([]float32, m*n), M: m, N: n, K: 8,
		ScaleA: make([]float32, m), RowSum: make([]int32, m), BScale: []float32{1}, BZero: []int32{0}}
	func() {
		defer func() {
			const want = "gemm: PackedA 0 too small"
			if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
				t.Errorf("K=8 without PackedA: recovered %q, want %q", msg, want)
			}
		}()
		var ctx Context
		ctx.RunInt8(call)
	}()
	call.K = 0
	var ctx Context
	ctx.RunInt8(call)
}

// TestKernel8Selection pins the int8 dispatch API, mirroring
// TestKernelSelection.
func TestKernel8Selection(t *testing.T) {
	prev := Kernel8Name()
	defer func() {
		if err := SetKernel8(prev); err != nil {
			t.Fatal(err)
		}
	}()
	names := Kernel8Names()
	if len(names) == 0 || names[0] != "go" {
		t.Fatalf("Kernel8Names() = %v, want \"go\" first", names)
	}
	for _, n := range names {
		if err := SetKernel8(n); err != nil {
			t.Fatalf("SetKernel8(%q): %v", n, err)
		}
		if got := Kernel8Name(); got != n {
			t.Fatalf("Kernel8Name() = %q after SetKernel8(%q)", got, n)
		}
	}
	if err := SetKernel8("no-such-kernel"); err == nil {
		t.Fatal("SetKernel8 with unknown name should error")
	}
	if got := Kernel8Name(); got != names[len(names)-1] {
		t.Fatalf("failed SetKernel8 changed selection to %q", got)
	}
}

// FuzzInt8KernelDifferential fuzzes shapes, seeds and modes through every
// int8 SIMD kernel against the naive int32 reference, bit-exact.
func FuzzInt8KernelDifferential(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint64(7), uint8(0), uint8(0))
	f.Add(uint8(8), uint8(16), uint8(8), uint64(1), uint8(0), uint8(1))
	f.Add(uint8(7), uint8(9), uint8(13), uint64(3), uint8(2), uint8(2))
	f.Add(uint8(130), uint8(66), uint8(40), uint64(9), uint8(3), uint8(3))
	f.Add(uint8(4), uint8(16), uint8(0), uint64(2), uint8(0), uint8(0))
	f.Add(uint8(149), uint8(0), uint8(33), uint64(5), uint8(3), uint8(0)) // a dense layer: batch 3 of N = 1
	// amx: k-panels of kd mod 16 = 0, 1, 15 quads; three 16-row strips;
	// resnet-18's stem K = 196 at batch 3.
	f.Add(uint8(31), uint8(15), uint8(64), uint64(11), uint8(0), uint8(1))
	f.Add(uint8(47), uint8(19), uint8(68), uint64(12), uint8(0), uint8(2))
	f.Add(uint8(47), uint8(32), uint8(60), uint64(13), uint8(1), uint8(1))
	f.Add(uint8(63), uint8(48), uint8(196), uint64(14), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, m, n, k uint8, seed uint64, batch, mode uint8) {
		ic := int8Case{
			m: int(m%150) + 1, n: int(n%150) + 1, k: int(k % 200),
			batch: int(batch % 4),
			act:   Activation(mode % 4),
			bias:  mode%2 == 0,
		}
		a, scaleA, rowSum, b, bias := int8Buffers(ic, seed)
		images := 1
		if ic.batch > 1 {
			images = ic.batch
		}
		src := newTestSrc8(b, ic.k, ic.n, images, ic.k*ic.n)
		call := buildCall(ic, a, scaleA, rowSum, src, bias)
		want := refInt8(&call, ic, a, src)
		for _, kn := range Kernel8Names() {
			for _, v := range int8Variants {
				var got []float32
				withKernel8(t, kn, func() {
					got = runInt8Call(call, ic, a, v)
				})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("kernel %s variant %s %v diverges at C[%d]: got %v want %v",
							kn, v.name, ic, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// BenchmarkInt8Panel times each int8 kernel on one k-panel of a whole
// M-tile (128 rows × 256 k) against column blocks of resnet-18's widths,
// as sweep runs it, and reports GMAC/s: the kernels alone, without the
// quantizing B pack or the requantize store.
func BenchmarkInt8Panel(b *testing.B) {
	const m, k = 128, 256
	for _, kn := range Kernel8Names() {
		kern := int8Kernels.lookup(kn)
		for _, n := range []int{512, 208, 64} {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kn, m, n, k), func(b *testing.B) {
				ic := int8Case{m: m, n: n, k: k}
				a, _, _, _, _ := int8Buffers(ic, 1)
				var pa []int8 // one M-tile × k-panel, in the kernel's A layout
				withKernel8(b, kn, func() { pa = PrepackAInt8(a, m, k) })
				pb := make([]byte, n*k)
				for i := range pb {
					pb[i] = byte(i * 7)
				}
				acc := make([]int32, m*n)
				kd, strips, nb := k/kQuad, m/kern.mr, n/kern.nr
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if kern.panel != nil {
						kern.panel(pa, pb, acc, kd, n, strips, nb, true)
						continue
					}
					for s := 0; s < strips; s++ {
						for j := 0; j < nb; j++ {
							kern.micro(pa[s*kern.mr*k:], pb[j*kern.nr*k:], acc[s*kern.mr*n+j*kern.nr:], kd, n, true, nil, 0, 0)
						}
					}
				}
				b.ReportMetric(float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

// TestPackedAInt8FillsItsSize holds every int8 kernel's A packer to
// PackedAInt8Size: PrepackAInt8Into writes every byte of the first
// PackedAInt8Size(m, k) — the same bytes over two different poisons — and
// none past them. amx packs its own layout into the tier's size.
func TestPackedAInt8FillsItsSize(t *testing.T) {
	shapes := [][2]int{{1, 1}, {16, 64}, {17, 68}, {48, 60}, {64, 196}, {130, 300}, {1000, 512}, {33, 452}}
	for _, kn := range Kernel8Names() {
		withKernel8(t, kn, func() {
			for _, mk := range shapes {
				m, k := mk[0], mk[1]
				a, _, _, _, _ := int8Buffers(int8Case{m: m, k: k}, uint64(m+k))
				size := PackedAInt8Size(m, k)
				var bufs [2][]int8
				for i, poison := range []int8{-128, 127} {
					bufs[i] = slices.Repeat([]int8{poison}, size+64)
					PrepackAInt8Into(bufs[i], a, m, k)
					for j, v := range bufs[i][size:] {
						if v != poison {
							t.Fatalf("%s m=%d k=%d: packer wrote %d bytes past PackedAInt8Size %d", kn, m, k, j+1, size)
						}
					}
				}
				for j := range size {
					if bufs[0][j] != bufs[1][j] {
						t.Fatalf("%s m=%d k=%d: packer left byte %d of %d unwritten", kn, m, k, j, size)
					}
				}
			}
		})
	}
}

// TestAMXUnderGoRuntime runs the amx kernel from 8 goroutines for about
// 2 s while another goroutine forces garbage collections back to back:
// their stop-the-world and preemption signals land on threads inside a
// panel call, and Gosched between calls moves goroutines across threads.
// Tile state lives only within a call, so every result must equal the go
// kernel's bit for bit. It skips where amx is not registered.
func TestAMXUnderGoRuntime(t *testing.T) {
	if int8Kernels.lookup("amx") == nil {
		t.Skip("amx kernel not registered on this host")
	}
	cases := []int8Case{
		{m: 64, n: 49, k: 196, bias: true, act: ActReLU},
		{m: 48, n: 33, k: 452},
		{m: 1000, n: 1, k: 512, batch: 3},
	}
	type job struct {
		call CallInt8
		want []float32
	}
	jobs := make([]job, len(cases))
	for i, ic := range cases {
		a, scaleA, rowSum, b, bias := int8Buffers(ic, uint64(i+1))
		images := max(ic.batch, 1)
		src := newTestSrc8(b, ic.k, ic.n, images, ic.k*ic.n)
		call := buildCall(ic, a, scaleA, rowSum, src, bias)
		withKernel8(t, "go", func() { jobs[i].want = runInt8Call(call, ic, a, int8Variant{}) })
		withKernel8(t, "amx", func() { call.PackedA = prepackTestA(a, ic) })
		jobs[i].call = call
	}
	withKernel8(t, "amx", func() {
		done := make(chan struct{})
		var gc sync.WaitGroup
		gc.Add(1)
		go func() {
			defer gc.Done()
			for {
				select {
				case <-done:
					return
				default:
					runtime.GC()
				}
			}
		}()
		deadline := time.Now().Add(2 * time.Second)
		errs := make(chan error, 8)
		var runs atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ctx Context
				outs := make([][]float32, len(jobs))
				for i, j := range jobs {
					outs[i] = make([]float32, len(j.want))
				}
				for run := g; time.Now().Before(deadline); run++ {
					i := run % len(jobs)
					c := jobs[i].call
					c.C = outs[i]
					clear(c.C)
					ctx.RunInt8(c)
					if !slices.Equal(c.C, jobs[i].want) {
						errs <- fmt.Errorf("goroutine %d run %d: %v differs from the go kernel", g, run, cases[i])
						return
					}
					runs.Add(1)
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		close(done)
		gc.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		t.Logf("%d calls checked", runs.Load())
	})
}
