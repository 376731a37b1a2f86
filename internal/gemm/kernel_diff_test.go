package gemm

import (
	"fmt"
	"slices"
	"testing"

	"orpheus/internal/tensor"
)

// Differential tests for the SIMD micro-kernels: every selectable kernel
// must match the portable pure-Go kernel at ≤ 1e-5 relative tolerance on
// the same Call, across odd shapes, edge tails, batched calls,
// store-vs-accumulate modes, prepacked operands and the pool path. The
// pure-Go kernel is itself checked against Naive (TestPackedMatchesNaive,
// and FuzzKernelDifferential on every fuzzed input), so agreement here
// pins the whole chain.

// kernelAliases maps extra per-kernel subtest labels to the fp32 kernel
// they run. The AVX2 tile also runs under "avx2-6x16", the name it had
// while the tier held a second AVX2 tile, so the subtests that pinned it
// under that name keep it.
var kernelAliases = map[string]string{"avx2-6x16": "avx2"}

// kernelLabels returns the labels the per-kernel fp32 subtests run under:
// every selectable kernel's name, then each alias of a selectable kernel.
func kernelLabels() []string {
	labels := KernelNames()
	for alias, name := range kernelAliases {
		if slices.Contains(labels, name) {
			labels = append(labels, alias)
		}
	}
	return labels
}

// withKernel runs fn with the named kernel (or the kernel a label of
// kernelAliases names) active, restoring the previous selection afterwards.
func withKernel(t testing.TB, name string, fn func()) {
	t.Helper()
	if k, ok := kernelAliases[name]; ok {
		name = k
	}
	prev := KernelName()
	if err := SetKernel(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// simdKernelNames returns the labels other than the pure-Go reference,
// skipping the test when none exist (noasm build or an unsupported CPU).
func simdKernelNames(t testing.TB, labels []string) []string {
	var names []string
	for _, n := range labels {
		if n != "go" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		t.Skip("no SIMD kernels selectable on this CPU/build")
	}
	return names
}

// diffCase is one Call shape in the differential battery.
type diffCase struct {
	m, n, k int
	batch   int // 0 = unbatched
	padB    int // extra elements between batched B images (matrixSrc)
	padC    int // extra elements between batched C images
}

var diffCases = []diffCase{
	{m: 1, n: 1, k: 1},
	{m: 3, n: 5, k: 7},    // everything smaller than a tile
	{m: 4, n: 8, k: 4},    // exactly one go-kernel tile
	{m: 8, n: 8, k: 8},    // exactly one SIMD tile
	{m: 7, n: 9, k: 5},    // tails on both tile edges
	{m: 9, n: 17, k: 3},   // one past tile boundaries
	{m: 16, n: 24, k: 32}, // multiple full tiles, no tails
	{m: 5, n: 8, k: 0},    // empty shared dimension
	{m: 63, n: 65, k: 127},
	{m: 33, n: 7, k: 129},
	{m: 130, n: 258, k: 300}, // crosses every macro-block boundary
	{m: 200, n: 12, k: 500},  // deep K, narrow N
	{m: 5, n: 6, k: 9, batch: 3},
	{m: 8, n: 8, k: 16, batch: 4, padB: 3, padC: 5},
	{m: 130, n: 36, k: 40, batch: 2, padC: 1},
	// 16-row/16-column tile edges with odd k.
	{m: 15, n: 15, k: 9},
	{m: 16, n: 16, k: 11},
	{m: 17, n: 17, k: 19},
	{m: 31, n: 49, k: 27},
	{m: 33, n: 16, k: 41},
	{m: 16, n: 49, k: 11, batch: 2, padB: 1, padC: 3},
}

func (dc diffCase) String() string {
	s := fmt.Sprintf("m%d_n%d_k%d", dc.m, dc.n, dc.k)
	if dc.batch > 1 {
		s += fmt.Sprintf("_b%d", dc.batch)
	}
	return s
}

// variant selects how the Call is executed and which operand is prepacked.
type variant struct {
	name    string
	packA   bool
	packB   bool
	workers int // 0 = Context.Run, else Pool.Run
}

var diffVariants = []variant{
	{name: "raw"},
	{name: "packedA", packA: true},
	{name: "packedB", packB: true},
	{name: "pool3", workers: 3},
	{name: "pool3-packedA", packA: true, workers: 3},
}

// runDiffCall executes one case+variant under the active kernel into a
// fresh copy of cInit, prepacking operands under that same kernel.
func runDiffCall(dc diffCase, v variant, a, b, cInit []float32, store bool) []float32 {
	images := dc.batch
	if images < 2 {
		images = 1
	}
	c := Call{M: dc.m, N: dc.n, K: dc.k, Store: store, A: a, B: b}
	if dc.batch > 1 {
		// A batched B is a pack source: each image a window of b.
		c.Batch, c.B = dc.batch, nil
		c.BPack = &matrixSrc{b: b, k: dc.k, n: dc.n, strideB: dc.k*dc.n + dc.padB}
		c.StrideC = dc.m*dc.n + dc.padC
	}
	c.C = append([]float32(nil), cInit...)
	if v.packA && dc.k > 0 {
		c.PackedA = PrepackA(a, dc.m, dc.k)
		c.A = nil
	}
	// PackedB is one image's B; batched calls keep their pack source.
	if v.packB && dc.k > 0 && dc.batch <= 1 {
		c.PackedB = PrepackB(b, dc.k, dc.n)
		c.B = nil
	}
	if v.workers > 0 {
		var ctx Context
		Shared().Run(&ctx, c, v.workers)
	} else {
		var ctx Context
		ctx.Run(c)
	}
	return c.C
}

// relDiffOK checks |got-want| ≤ tol·max(1, |got|, |want|) element-wise and
// returns the first offending index, or -1.
func relDiffOK(got, want []float32, tol float64) int {
	for i := range want {
		d := float64(got[i]) - float64(want[i])
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if v := float64(want[i]); v > scale {
			scale = v
		} else if v < -scale {
			scale = -v
		}
		if g := float64(got[i]); g > scale {
			scale = g
		} else if g < -scale {
			scale = -g
		}
		if d > tol*scale {
			return i
		}
	}
	return -1
}

// diffBuffers builds shared random operands and a non-trivial initial C
// (exercising the accumulate path against pre-existing values).
func diffBuffers(dc diffCase, seed uint64) (a, b, cInit []float32) {
	images := dc.batch
	if images < 2 {
		images = 1
	}
	r := tensor.NewRNG(seed)
	a = randMat(r, dc.m, dc.k)
	lenB := dc.k * dc.n
	lenC := dc.m * dc.n
	if dc.batch > 1 {
		lenB = (images-1)*(dc.k*dc.n+dc.padB) + dc.k*dc.n
		lenC = (images-1)*(dc.m*dc.n+dc.padC) + dc.m*dc.n
	}
	b = make([]float32, lenB)
	for i := range b {
		b[i] = r.Uniform(-1, 1)
	}
	cInit = make([]float32, lenC)
	for i := range cInit {
		cInit[i] = r.Uniform(-1, 1)
	}
	return a, b, cInit
}

func TestKernelDifferential(t *testing.T) {
	const tol = 1e-5
	for _, simd := range simdKernelNames(t, kernelLabels()) {
		for _, dc := range diffCases {
			for _, v := range diffVariants {
				for _, store := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%s/store=%v", simd, dc, v.name, store)
					t.Run(name, func(t *testing.T) {
						a, b, cInit := diffBuffers(dc, uint64(dc.m*1000+dc.n*10+dc.k))
						var want, got []float32
						withKernel(t, "go", func() {
							want = runDiffCall(dc, v, a, b, cInit, store)
						})
						withKernel(t, simd, func() {
							got = runDiffCall(dc, v, a, b, cInit, store)
						})
						if i := relDiffOK(got, want, tol); i >= 0 {
							t.Fatalf("kernel %s diverges from go at C[%d]: got %v want %v",
								simd, i, got[i], want[i])
						}
					})
				}
			}
		}
	}
}

// TestKernelSelection pins the dispatch API: "go" is always selectable,
// unknown names error without changing the selection, and SetKernel
// round-trips every advertised name.
func TestKernelSelection(t *testing.T) {
	prev := KernelName()
	defer func() {
		if err := SetKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	names := KernelNames()
	if len(names) == 0 || names[0] != "go" {
		t.Fatalf("KernelNames() = %v, want \"go\" first", names)
	}
	for _, n := range names {
		if err := SetKernel(n); err != nil {
			t.Fatalf("SetKernel(%q): %v", n, err)
		}
		if got := KernelName(); got != n {
			t.Fatalf("KernelName() = %q after SetKernel(%q)", got, n)
		}
	}
	if err := SetKernel("no-such-kernel"); err == nil {
		t.Fatal("SetKernel with unknown name should error")
	}
	if got := KernelName(); got != names[len(names)-1] {
		t.Fatalf("failed SetKernel changed selection to %q", got)
	}
}

// TestPackedWeightsUnpaddedAtChannelMultiples pins the row geometry of the
// AVX-512 kernels: with 16-row tiles, weight matrices whose output-channel
// count is a multiple of 16 — every CNN channel count from 16 up — pack
// with no padded rows, in either tier.
func TestPackedWeightsUnpaddedAtChannelMultiples(t *testing.T) {
	t.Run("fp32", func(t *testing.T) {
		if !slices.Contains(KernelNames(), "avx512") {
			t.Skip("avx512 kernel not selectable on this CPU/build")
		}
		withKernel(t, "avx512", func() {
			forChannelMultiples(func(m, k int) {
				if got := PackedASize(m, k); got != m*k {
					t.Errorf("PackedASize(%d, %d) = %d, want %d", m, k, got, m*k)
				}
			})
		})
	})
	t.Run("int8", func(t *testing.T) {
		if !slices.Contains(Kernel8Names(), "vnni") {
			t.Skip("vnni kernel not selectable on this CPU/build")
		}
		withKernel8(t, "vnni", func() {
			forChannelMultiples(func(m, k int) {
				if got, want := PackedAInt8Size(m, k), m*roundUp(k, kQuad); got != want {
					t.Errorf("PackedAInt8Size(%d, %d) = %d, want %d", m, k, got, want)
				}
			})
		})
	})
}

// forChannelMultiples calls fn for every output-channel count m in
// {16, 32, …, 512}, with a stem-like and a 3x3-conv-like k.
func forChannelMultiples(fn func(m, k int)) {
	for m := 16; m <= 512; m += 16 {
		fn(m, 27)
		fn(m, 9*m)
	}
}

// naiveDiffCall is what runDiffCall computes, by Naive, image by image.
func naiveDiffCall(dc diffCase, a, b, cInit []float32, store bool) []float32 {
	c := append([]float32(nil), cInit...)
	for img := 0; img < max(dc.batch, 1); img++ {
		cc := c[img*(dc.m*dc.n+dc.padC):][:dc.m*dc.n]
		if store {
			clear(cc)
		}
		Naive(a, b[img*(dc.k*dc.n+dc.padB):], cc, dc.m, dc.n, dc.k)
	}
	return c
}

// FuzzKernelDifferential fuzzes shapes, seeds and modes through the
// pure-Go kernel against Naive, an independent reference that shares no
// code with the packed walk, and through every SIMD kernel against the
// pure-Go one. The seed corpus covers tile boundaries; the fuzzer explores
// tails and batch striding from there.
func FuzzKernelDifferential(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(1), uint64(7), false, uint8(0), uint8(0))
	f.Add(uint8(8), uint8(8), uint8(8), uint64(1), true, uint8(0), uint8(0))
	f.Add(uint8(7), uint8(9), uint8(13), uint64(3), false, uint8(2), uint8(3))
	f.Add(uint8(130), uint8(66), uint8(40), uint64(9), true, uint8(3), uint8(1))
	f.Add(uint8(4), uint8(16), uint8(0), uint64(2), true, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, m, n, k uint8, seed uint64, store bool, batch, pad uint8) {
		const tol = 1e-5
		dc := diffCase{
			m: int(m%150) + 1, n: int(n%150) + 1, k: int(k % 200),
			batch: int(batch % 4), padB: int(pad % 8), padC: int(pad % 5),
		}
		a, b, cInit := diffBuffers(dc, seed)
		ref := naiveDiffCall(dc, a, b, cInit, store)
		wants := make([][]float32, len(diffVariants))
		for vi, v := range diffVariants {
			withKernel(t, "go", func() {
				wants[vi] = runDiffCall(dc, v, a, b, cInit, store)
			})
			if i := relDiffOK(wants[vi], ref, tol); i >= 0 {
				t.Fatalf("kernel go variant %s %v store=%v diverges from Naive at C[%d]: got %v want %v",
					v.name, dc, store, i, wants[vi][i], ref[i])
			}
		}
		for _, simd := range simdKernelNames(t, KernelNames()) {
			for vi, v := range diffVariants {
				var got []float32
				withKernel(t, simd, func() {
					got = runDiffCall(dc, v, a, b, cInit, store)
				})
				if i := relDiffOK(got, wants[vi], tol); i >= 0 {
					t.Fatalf("kernel %s variant %s %v store=%v diverges at C[%d]: got %v want %v",
						simd, v.name, dc, store, i, got[i], wants[vi][i])
				}
			}
		}
	})
}
