package gemm

import (
	"fmt"
	"testing"

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
// row-major), quantizing per image or per column with precomputed params.
type testSrc8 struct {
	b        []float32
	k, n     int
	stride   int // elements between images
	colQuant bool
	scales   []float32
	zeros    []int32
}

func newTestSrc8(b []float32, k, n, images, stride int, colQuant bool) *testSrc8 {
	s := &testSrc8{b: b, k: k, n: n, stride: stride, colQuant: colQuant}
	if colQuant {
		s.scales = make([]float32, n)
		s.zeros = make([]int32, n)
		for j := 0; j < n; j++ {
			lo, hi := float32(0), float32(0)
			for p := 0; p < k; p++ {
				v := b[p*n+j]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			s.scales[j], s.zeros[j] = quantParamsTest(lo, hi)
		}
		return s
	}
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
	sc, z := s.scales[0], s.zeros[0]
	if s.colQuant {
		sc, z = s.scales[j], s.zeros[j]
	} else {
		sc, z = s.scales[img], s.zeros[img]
	}
	return quantU8Test(s.b[img*s.stride+p*s.n+j], sc, z)
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
	m, n, k  int
	batch    int
	padC     int
	transC   bool // implies colQuant, unbatched
	colQuant bool
	act      Activation
	bias     bool
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
	{m: 11, n: 13, k: 21, transC: true, colQuant: true, bias: true, act: ActReLU},
	{m: 64, n: 9, k: 130, transC: true, colQuant: true},
	{m: 17, n: 19, k: 23, colQuant: true, act: ActLeakyReLU},
	{m: 16, n: 9, k: 12, colQuant: true, act: ActReLU6, bias: true},
	{m: 12, n: 7, k: 8, transC: true, colQuant: true, act: ActLeakyReLU},
	{m: 300, n: 20, k: 260, act: ActLeakyReLU},       // three M-tiles in one group
	{m: 520, n: 530, k: 9, bias: true, act: ActReLU}, // group narrows the column block
	// 16-row/16-column tile edges; odd k padding to an odd quad count.
	{m: 15, n: 15, k: 9},
	{m: 16, n: 16, k: 11, bias: true},
	{m: 17, n: 17, k: 19, act: ActReLU},
	{m: 31, n: 49, k: 27, bias: true, act: ActReLU6},
	{m: 33, n: 16, k: 41},
	{m: 16, n: 49, k: 11, batch: 2, padC: 3},
	{m: 31, n: 15, k: 17, colQuant: true, act: ActReLU},
	{m: 33, n: 17, k: 49, transC: true, colQuant: true, bias: true},
}

func (ic int8Case) String() string {
	s := fmt.Sprintf("m%d_n%d_k%d", ic.m, ic.n, ic.k)
	if ic.batch > 1 {
		s += fmt.Sprintf("_b%d", ic.batch)
	}
	if ic.transC {
		s += "_tc"
	} else if ic.colQuant {
		s += "_cq"
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
// fresh C.
func buildCall(ic int8Case, a []int8, scaleA []float32, rowSum []int32, src *testSrc8, bias []float32) CallInt8 {
	images := 1
	if ic.batch > 1 {
		images = ic.batch
	}
	cLen := ic.m * ic.n
	c := CallInt8{
		A: a, B: src, M: ic.m, N: ic.n, K: ic.k,
		ScaleA: scaleA, RowSum: rowSum,
		BScale: src.scales, BZero: src.zeros,
		TransC: ic.transC, ColQuant: ic.colQuant || ic.transC,
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

// storeTwoPass is the requantize epilogue in its original two-pass
// form — requantize a row (or TransC column), then sweep it again with
// applyActivationRow — kept as the oracle for store's fused
// single-pass loops.
func (c *CallInt8) storeTwoPass(acc []int32, ldc, img, ii, jj, mc, nc int) {
	if c.TransC {
		for j := 0; j < nc; j++ {
			col := c.C[(jj+j)*c.M+ii : (jj+j)*c.M+ii+mc]
			sB := c.BScale[jj+j]
			z := c.BZero[jj+j]
			for r := 0; r < mc; r++ {
				v := float32(acc[r*ldc+j]-z*c.RowSum[ii+r]) * (c.ScaleA[ii+r] * sB)
				if c.BiasRow != nil {
					v += c.BiasRow[ii+r]
				}
				col[r] = v
			}
			applyActivationRow(col, c.Act, c.Alpha)
		}
		return
	}
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
		if c.ColQuant {
			for i, a := range arow {
				row[i] = float32(a-c.BZero[jj+i]*rs)*(sA*c.BScale[jj+i]) + bv
			}
		} else {
			s := sA * c.BScale[img]
			comp := c.BZero[img] * rs
			for i, a := range arow {
				row[i] = float32(a-comp)*s + bv
			}
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

// int8Variant selects execution mode and prepacking.
type int8Variant struct {
	name    string
	packA   bool
	workers int
}

var int8Variants = []int8Variant{
	{name: "raw"},
	{name: "packedA", packA: true},
	{name: "pool3", workers: 3},
	{name: "pool3-packedA", packA: true, workers: 3},
}

// runInt8Call executes the call under the active kernel, prepacking under
// that same kernel.
func runInt8Call(c CallInt8, ic int8Case, a []int8, v int8Variant) []float32 {
	if v.packA && ic.k > 0 {
		c.PackedA = PrepackAInt8(a, ic.m, ic.k)
		c.A = nil
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
		src := newTestSrc8(b, ic.k, ic.n, images, ic.k*ic.n, ic.colQuant || ic.transC)
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
			src := &countingSrc8{PackSrc8: newTestSrc8(b, ic.k, ic.n, images, ic.k*ic.n, false)}
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
	src := newTestSrc8(b, k, n, 1, k*n, false)
	ic := int8Case{m: m, n: n, k: k}
	call := buildCall(ic, a, scaleA, rowSum, src, nil)
	want := refInt8(&call, ic, a, src)
	for _, kn := range Kernel8Names() {
		t.Run(kn, func(t *testing.T) {
			var got []float32
			withKernel8(t, kn, func() {
				got = runInt8Call(call, ic, a, int8Variant{name: "raw"})
			})
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("kernel %s saturation edge diverges at C[%d]: got %v want %v", kn, i, got[i], want[i])
				}
			}
		})
	}
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
	f.Fuzz(func(t *testing.T, m, n, k uint8, seed uint64, batch, mode uint8) {
		ic := int8Case{
			m: int(m%150) + 1, n: int(n%150) + 1, k: int(k % 200),
			batch: int(batch % 4),
			act:   Activation(mode % 4),
			bias:  mode%2 == 0,
		}
		if mode%3 == 0 && ic.batch <= 1 {
			ic.transC, ic.colQuant = true, true
		}
		a, scaleA, rowSum, b, bias := int8Buffers(ic, seed)
		images := 1
		if ic.batch > 1 {
			images = ic.batch
		}
		src := newTestSrc8(b, ic.k, ic.n, images, ic.k*ic.n, ic.colQuant || ic.transC)
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
