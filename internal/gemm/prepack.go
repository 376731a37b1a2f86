package gemm

// Prepacking of run-invariant GEMM operands.
//
// Convolution and dense-layer weights are graph constants, yet the seed
// implementation repacked their panels on every inference. PrepackA and
// PrepackB produce, once, the exact panel layout the walk consumes;
// Call.PackedA / Call.PackedB then skip that side's per-call packing
// entirely. The layout is k-panels (kcBlock columns) outermost, then the
// mr-row (or nr-column) strips of the whole matrix within each, so the panel
// of A at (row ii, k pp) starts at roundUp(m,mr)*pp + ii*kc — exact for any
// M-tile or column block that starts on a strip boundary, however a call is
// cut into units.
//
// The panel layout bakes in the active micro-kernel's mr×nr geometry
// (kernel.go): buffers prepacked under one kernel are invalid after
// SetKernel switches to a kernel with a different tile shape, and the
// Size functions must be consulted under the same kernel that will run
// the Call.

func ceilDiv(x, q int) int { return (x + q - 1) / q }

func roundUp(x, q int) int { return ceilDiv(x, q) * q }

// PackedASize returns the buffer length PrepackAInto requires for an m×k
// matrix under the active kernel: every row panel is padded up to a
// multiple of mr rows.
func PackedASize(m, k int) int { return roundUp(m, fp32Kernels.get().mr) * k }

// PackedBSize returns the buffer length PrepackBInto requires for a k×n
// matrix under the active kernel: every column panel is padded up to a
// multiple of nr columns.
func PackedBSize(k, n int) int { return roundUp(n, fp32Kernels.get().nr) * k }

// PrepackAInto packs the whole m×k matrix a into dst, which must hold
// PackedASize(m, k) values.
func PrepackAInto(dst, a []float32, m, k int) { prepackA(fp32Kernels, packA, dst, a, m, k) }

// prepackA packs the whole m×k matrix a with pack, a tier's panel packer,
// in its active kernel's geometry: panel (pp, ii) starts at
// roundUp(m,mr)*pp + ii*roundUp(kc,kgroup), where the walk reads it.
func prepackA[A, B, C any](r *registry[A, B, C], pack func(dst, a []A, ii, pp, mc, kc, lda, mr int), dst, a []A, m, k int) {
	kern := r.get()
	pm := roundUp(m, kern.mr)
	for pp := 0; pp < k; pp += kcBlock {
		kc := min(kcBlock, k-pp)
		for ii := 0; ii < m; ii += kern.mc {
			pack(dst[pm*pp+ii*roundUp(kc, r.kgroup):], a, ii, pp, min(kern.mc, m-ii), kc, k, kern.mr)
		}
	}
}

// PrepackA allocates and fills the packed-panel form of the m×k matrix a.
func PrepackA(a []float32, m, k int) []float32 {
	dst := make([]float32, PackedASize(m, k))
	PrepackAInto(dst, a, m, k)
	return dst
}

// PrepackBInto packs the whole k×n matrix b into dst, which must hold
// PackedBSize(k, n) values.
func PrepackBInto(dst, b []float32, k, n int) {
	kern := fp32Kernels.get()
	pn := roundUp(n, kern.nr)
	for pp := 0; pp < k; pp += kcBlock {
		kc := min(kcBlock, k-pp)
		for jj := 0; jj < n; jj += ncBlock {
			nc := min(ncBlock, n-jj)
			packB(dst[pn*pp+jj*kc:], b, pp, jj, kc, nc, n, kern.nr)
		}
	}
}

// PrepackB allocates and fills the packed-panel form of the k×n matrix b.
func PrepackB(b []float32, k, n int) []float32 {
	dst := make([]float32, PackedBSize(k, n))
	PrepackBInto(dst, b, k, n)
	return dst
}
