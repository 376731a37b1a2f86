package gemm

import "math"

// Packing + micro-kernel GEMM. This is the "production" tier: panels of A
// and B are repacked into contiguous strips sized for the register-blocked
// micro-kernel, which computes one mr×nr block of C per inner iteration.
// The micro-kernel (and with it the mr×nr geometry) is selected at runtime
// by CPU-feature dispatch — see kernel.go; the pure-Go 4x8 kernel below is
// the portable fallback and the correctness reference for the SIMD ones.
//
// The general entry point is Call executed through Context.Run or, with a
// worker budget, Pool.Run — the same walk over the same units (pool.go). It
// supports both accumulating (C += A·B) and overwriting (C = A·B)
// semantics, and either operand may be supplied prepacked (see prepack.go)
// so run-invariant weights are packed once per model instead of once per
// inference.

const (
	mcBlock = 128 // rows of A per packed panel
	kcBlock = 256 // shared dimension per panel
	ncBlock = 512 // cols of B per packed panel

	// MaxPanelK re-exports the k-blocking factor: no PackPanel/PackPanel8
	// request ever has kc > MaxPanelK, so pack sources may size per-panel
	// stack tables (e.g. hoisted row-decode results) with it.
	MaxPanelK = kcBlock
)

// Call describes one GEMM invocation: C = A·B when Store is set,
// C += A·B otherwise. A is M×K, B is K×N, C is M×N, all row-major dense.
//
// PackedA/PackedB, when non-nil, are panel buffers produced by
// PrepackA/PrepackB and replace the corresponding raw operand, which may
// then be nil. Store with K == 0 zeroes C (a BLAS beta=0 product with an
// empty shared dimension).
//
// Batch > 1 describes a strided batch of GEMMs sharing one A (or PackedA)
// operand: image i multiplies B[i*StrideB:] into C[i*StrideC:]. This is
// the shape of batched inference through a constant weight matrix — the
// packed weight panels are loaded once and reused across the whole batch,
// and a worker Pool claims the units of every image from one counter.
// PackedB is unsupported for batched calls (each image would need its own
// panels).
//
// BPack, when non-nil, replaces the B operand entirely: the packed tier
// asks the source for each kc×nc panel instead of re-packing a
// materialised matrix, so B may be nil and StrideB is ignored — batched
// calls hand the image index to the source. Implicit-GEMM convolution
// packs panels straight from the NCHW input this way. BPack cannot be
// combined with PackedB.
//
// APack is the A-side mirror of BPack: a virtual A operand packed panel by
// panel, replacing A/PackedA. Unlike BPack it composes with PackedB and
// with batching — this is the shape of NHWC implicit-GEMM convolution,
// where the constant weight panels are the (prepacked, batch-shared) B
// operand and the per-image receptive fields are gathered as A. Batched
// APack calls share B/PackedB across images (StrideB is ignored) and hand
// the image index to the source.
//
// Ldc, when non-zero, is the row stride of C in elements (Ldc ≥ N): C is an
// M×N window of a wider row-major matrix. Grouped convolution writes each
// group's output-channel slice in place this way. Zero means dense (Ldc=N).
//
// BiasRow, BiasCol, Act and Alpha describe a fused epilogue applied once
// per output element as its micro-tile's final k-panel is stored (see
// epilogue.go): BiasRow[i] is added to every element of row i (convolution
// output channels), BiasCol[j] to every element of column j (dense output
// features), then Act runs, replacing the separate post-GEMM bias and
// activation sweeps.
type Call struct {
	A, B, C []float32
	M, N, K int
	PackedA []float32
	PackedB []float32
	Store   bool

	Ldc int // row stride of C in elements; 0 means N (dense)

	Batch            int // number of strided images; 0 and 1 mean a single GEMM
	StrideB, StrideC int // element offsets between consecutive images

	BPack PackSrc  // virtual B operand; replaces B/PackedB when non-nil
	APack PackSrcA // virtual A operand; replaces A/PackedA when non-nil

	BiasRow []float32  // optional per-row epilogue bias, len ≥ M
	BiasCol []float32  // optional per-column epilogue bias, len ≥ N
	Act     Activation // epilogue activation, applied after the bias add
	Alpha   float32    // LeakyReLU slope
}

// images returns the batch count, treating the zero value as 1.
func (c *Call) images() int {
	if c.Batch < 2 {
		return 1
	}
	return c.Batch
}

// ldc returns the effective row stride of C.
func (c *Call) ldc() int {
	if c.Ldc != 0 {
		return c.Ldc
	}
	return c.N
}

// validate panics if the described buffers cannot hold the matrices.
// Packed-operand sizes are checked against the active kernel's geometry,
// which must match the geometry the panels were packed under.
func (c *Call) validate() {
	if c.M < 0 || c.N < 0 || c.K < 0 {
		panicf("gemm: negative dimension m=%d n=%d k=%d", c.M, c.N, c.K)
	}
	if c.M == 0 || c.N == 0 {
		return
	}
	images := c.images()
	if c.BPack != nil && c.PackedB != nil {
		panicf("gemm: BPack cannot be combined with PackedB")
	}
	if c.APack != nil && c.BPack != nil {
		panicf("gemm: APack cannot be combined with BPack")
	}
	if c.APack != nil && (c.A != nil || c.PackedA != nil) {
		panicf("gemm: APack cannot be combined with A/PackedA")
	}
	ldc := c.ldc()
	if ldc < c.N {
		panicf("gemm: Ldc %d narrower than n=%d", ldc, c.N)
	}
	if c.BiasRow != nil && len(c.BiasRow) < c.M {
		panicf("gemm: BiasRow %d too short for m=%d", len(c.BiasRow), c.M)
	}
	if c.BiasCol != nil && len(c.BiasCol) < c.N {
		panicf("gemm: BiasCol %d too short for n=%d", len(c.BiasCol), c.N)
	}
	rowsC := (c.M-1)*ldc + c.N // extent of one image's C window
	if images > 1 {
		// APack batches share the B operand (constant weights) across
		// images, so PackedB is allowed and StrideB is ignored there.
		if c.PackedB != nil && c.APack == nil {
			panicf("gemm: batched call cannot use PackedB")
		}
		// Image windows must not overlap: tiles of different images are
		// scheduled concurrently and assume disjoint C regions.
		if c.StrideC < rowsC {
			panicf("gemm: batch C stride %d overlaps %dx%d images", c.StrideC, c.M, c.N)
		}
		if c.BPack == nil && c.APack == nil && c.K > 0 && c.StrideB < c.K*c.N {
			panicf("gemm: batch B stride %d overlaps %dx%d images", c.StrideB, c.K, c.N)
		}
	}
	lastB := (images - 1) * c.StrideB
	if c.APack != nil {
		lastB = 0
	}
	lastC := (images - 1) * c.StrideC
	if len(c.C) < lastC+rowsC {
		panicf("gemm: C buffer %d too small for %dx%d × %d images", len(c.C), c.M, c.N, images)
	}
	if c.K == 0 {
		return
	}
	if c.APack == nil {
		if c.PackedA != nil {
			if len(c.PackedA) < PackedASize(c.M, c.K) {
				panicf("gemm: PackedA %d too small for m=%d k=%d", len(c.PackedA), c.M, c.K)
			}
		} else if len(c.A) < c.M*c.K {
			panicf("gemm: A buffer %d too small for %dx%d", len(c.A), c.M, c.K)
		}
	}
	if c.BPack != nil {
		return
	}
	if c.PackedB != nil {
		if len(c.PackedB) < PackedBSize(c.K, c.N) {
			panicf("gemm: PackedB %d too small for k=%d n=%d", len(c.PackedB), c.K, c.N)
		}
	} else if len(c.B) < lastB+c.K*c.N {
		panicf("gemm: B buffer %d too small for %dx%d × %d images", len(c.B), c.K, c.N, images)
	}
}

// Context holds the packing scratch buffers for packed GEMM so repeated
// calls (the common case during inference) do not reallocate. The zero
// value is ready to use. A Context is not safe for concurrent use.
type Context struct {
	packA []float32
	packB []float32
	// tail is the edge-tile staging buffer. It lives here rather than on
	// the macro-kernel's stack because the micro-kernel is dispatched
	// through a function pointer, which would force a per-call heap
	// escape of a stack buffer — and the steady-state Run path must not
	// allocate.
	tail [maxMR * maxNR]float32

	// Int8-tier scratch (int8.go): quantized panel buffers and the int32
	// accumulator tile. Grown lazily so fp32-only processes never pay for
	// them.
	packA8 []int8
	packB8 []byte
	acc32  []int32
}

// Run executes the call single-threaded. Hot inference paths should hold a
// long-lived Context so the packing buffers are reused across calls.
func (ctx *Context) Run(c Call) {
	w := gemmWork{call: c}
	for i, n := 0, w.plan(1); i < n; i++ {
		w.runUnit(ctx, i)
	}
}

// gemmWork is one fp32 call cut into units (see blocking). kern is the
// micro-kernel resolved by plan, so every unit of one call — caller- and
// helper-executed — packs and computes with the same geometry.
type gemmWork struct {
	call Call
	kern *kernel
	grid unitGrid
}

// plan implements unitWork. An empty C, or an accumulating product over an
// empty shared dimension, has no units.
func (w *gemmWork) plan(workers int) int {
	c := &w.call
	c.validate()
	if c.M == 0 || c.N == 0 || (c.K == 0 && !c.Store) {
		return 0
	}
	w.kern = activeKernel()
	w.grid = blocking(c.M, c.N, c.images(), workers, w.kern.mc, math.MaxInt)
	return w.grid.units()
}

// runUnit implements unitWork: rows [i0, i1) × columns [jj, jj+nc) of one
// image's C across the full K extent. For every k-panel the B panel is
// packed (or located) once and swept by each M-tile of the row group, so a
// virtual B is gathered once per unit however tall the group is. Every C
// element accumulates its k-panels in ascending order whatever the cut, so
// the result does not depend on it; the epilogue fires exactly once per
// element, with the final k-panel's tile store while the tile is
// cache-hot. A pack source is handed the image index; raw B is strided by
// image except under APack, whose batches share B.
func (w *gemmWork) runUnit(ctx *Context, unit int) {
	c, kern := &w.call, w.kern
	img, i0, i1, jj, nc := w.grid.unit(unit)
	cc := c.C[img*c.StrideC:]
	ldc := c.ldc()
	if c.K == 0 { // Store with an empty product: C = 0, then the epilogue
		zeroCWindow(cc[i0*ldc+jj:], i1-i0, nc, ldc)
		if c.hasEpilogue() {
			c.applyEpilogueTile(cc, i0, jj, i1-i0, nc, ldc)
		}
		return
	}
	pm := roundUp(c.M, kern.mr)
	pn := roundUp(c.N, kern.nr)
	for pp := 0; pp < c.K; pp += kcBlock {
		kc := min(kcBlock, c.K-pp)
		var pb []float32
		switch {
		case c.BPack != nil:
			ctx.growB()
			c.BPack.PackPanel(ctx.packB, img, pp, jj, kc, nc, kern.nr)
			pb = ctx.packB
		case c.PackedB != nil:
			pb = c.PackedB[pn*pp+jj*kc:]
		default:
			b := c.B
			if c.APack == nil {
				b = b[img*c.StrideB:]
			}
			ctx.growB()
			packB(ctx.packB, b, pp, jj, kc, nc, c.N, kern.nr)
			pb = ctx.packB
		}
		for ii := i0; ii < i1; ii += kern.mc {
			mc := min(kern.mc, i1-ii)
			var pa []float32
			switch {
			case c.APack != nil:
				ctx.growA()
				c.APack.PackPanelA(ctx.packA, img, ii, pp, mc, kc, kern.mr)
				pa = ctx.packA
			case c.PackedA != nil:
				pa = c.PackedA[pm*pp+ii*kc:]
			default:
				ctx.growA()
				packA(ctx.packA, c.A, ii, pp, mc, kc, c.K, kern.mr)
				pa = ctx.packA
			}
			ctx.macroKernel(kern, pa, pb, cc, ii, jj, mc, nc, kc, ldc, c.Store && pp == 0)
			if pp+kc == c.K && c.hasEpilogue() {
				c.applyEpilogueTile(cc, ii, jj, mc, nc, ldc)
			}
		}
	}
}

// Packed computes C += A·B using panel packing and the active micro-kernel.
func (ctx *Context) Packed(a, b, c []float32, m, n, k int) {
	ctx.Run(Call{A: a, B: b, C: c, M: m, N: n, K: k})
}

// PackedStore computes C = A·B, overwriting C. Kernels that fully produce
// their output this way spare the runtime an arena zero-fill.
func (ctx *Context) PackedStore(a, b, c []float32, m, n, k int) {
	ctx.Run(Call{A: a, B: b, C: c, M: m, N: n, K: k, Store: true})
}

// zeroCWindow clears an m×n window with row stride ldc.
func zeroCWindow(c []float32, m, n, ldc int) {
	if ldc == n {
		c = c[:m*n]
		for i := range c {
			c[i] = 0
		}
		return
	}
	for r := 0; r < m; r++ {
		row := c[r*ldc : r*ldc+n]
		for i := range row {
			row[i] = 0
		}
	}
}

func (ctx *Context) growA() {
	// Packed panels are padded up to full micro-tiles; scratch is sized for
	// the widest registered kernel so it never depends on dispatch.
	const an = (mcBlock + maxMR) * kcBlock
	if cap(ctx.packA) < an {
		ctx.packA = make([]float32, an)
	}
	ctx.packA = ctx.packA[:cap(ctx.packA)]
}

func (ctx *Context) growB() {
	const bn = (ncBlock + maxNR) * kcBlock
	if cap(ctx.packB) < bn {
		ctx.packB = make([]float32, bn)
	}
	ctx.packB = ctx.packB[:cap(ctx.packB)]
}

// packA copies an mc×kc panel of A (row ii, col pp) into strips of mr rows,
// stored column-major within each strip so the micro-kernel reads
// contiguously. Rows beyond mc are zero-padded.
func packA(dst, a []float32, ii, pp, mc, kc, lda, mr int) {
	di := 0
	for i := 0; i < mc; i += mr {
		rows := min(mr, mc-i)
		for p := 0; p < kc; p++ {
			for r := 0; r < rows; r++ {
				dst[di] = a[(ii+i+r)*lda+pp+p]
				di++
			}
			for r := rows; r < mr; r++ {
				dst[di] = 0
				di++
			}
		}
	}
}

// packB copies a kc×nc panel of B (row pp, col jj) into strips of nr
// columns, row-major within each strip: one copy per strip row. Columns
// beyond nc are zero-padded.
func packB(dst, b []float32, pp, jj, kc, nc, ldb, nr int) {
	di := 0
	for j := 0; j < nc; j += nr {
		cols := min(nr, nc-j)
		base := pp*ldb + jj + j
		for p := 0; p < kc; p++ {
			copy(dst[di:di+cols], b[base:base+cols])
			for cc := cols; cc < nr; cc++ {
				dst[di+cc] = 0
			}
			di += nr
			base += ldb
		}
	}
}

// macroKernel multiplies the packed panels into C with kern's micro-kernel.
// store selects overwrite (C = panel product) over accumulate for this
// panel's contribution. The receiver supplies the edge-tile staging buffer.
// Any fused epilogue is applied by the caller after the macro-tile's final
// k-panel (see runUnit), so it runs exactly once per output element.
func (ctx *Context) macroKernel(kern *kernel, pa, pb, c []float32, ii, jj, mc, nc, kc, ldc int, store bool) {
	mr, nr := kern.mr, kern.nr
	for i := 0; i < mc; i += mr {
		rows := min(mr, mc-i)
		aStrip := pa[(i/mr)*kc*mr:]
		for j := 0; j < nc; j += nr {
			cols := min(nr, nc-j)
			bStrip := pb[(j/nr)*kc*nr:]
			if rows == mr && cols == nr {
				kern.micro(aStrip, bStrip, c[(ii+i)*ldc+jj+j:], kc, ldc, store)
				continue
			}
			// Edge tile: accumulate into a temporary then merge the live part.
			t := ctx.tail[:mr*nr]
			for x := range t {
				t[x] = 0
			}
			kern.micro(aStrip, bStrip, t, kc, nr, true)
			for r := 0; r < rows; r++ {
				cRow := c[(ii+i+r)*ldc+jj+j:]
				if store {
					for cc := 0; cc < cols; cc++ {
						cRow[cc] = t[r*nr+cc]
					}
				} else {
					for cc := 0; cc < cols; cc++ {
						cRow[cc] += t[r*nr+cc]
					}
				}
			}
		}
	}
}

// microKernelGo is the portable 4x8 micro-kernel: C[r][cc] (+)= sum_p
// A[p][r]*B[p][cc] with the mr×nr block held in scalar registers. pa is
// packed as kc groups of 4 values; pb as kc groups of 8 values. ldc is the
// row stride of c; store overwrites C instead of accumulating.
func microKernelGo(pa, pb, c []float32, kc, ldc int, store bool) {
	const mr, nr = 4, 8
	var (
		c00, c01, c02, c03, c04, c05, c06, c07 float32
		c10, c11, c12, c13, c14, c15, c16, c17 float32
		c20, c21, c22, c23, c24, c25, c26, c27 float32
		c30, c31, c32, c33, c34, c35, c36, c37 float32
	)
	pa = pa[:kc*mr]
	pb = pb[:kc*nr]
	for p := 0; p < kc; p++ {
		a0 := pa[p*mr+0]
		a1 := pa[p*mr+1]
		a2 := pa[p*mr+2]
		a3 := pa[p*mr+3]
		b := pb[p*nr : p*nr+nr : p*nr+nr]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		b4, b5, b6, b7 := b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c04 += a0 * b4
		c05 += a0 * b5
		c06 += a0 * b6
		c07 += a0 * b7
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c14 += a1 * b4
		c15 += a1 * b5
		c16 += a1 * b6
		c17 += a1 * b7
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c24 += a2 * b4
		c25 += a2 * b5
		c26 += a2 * b6
		c27 += a2 * b7
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		c34 += a3 * b4
		c35 += a3 * b5
		c36 += a3 * b6
		c37 += a3 * b7
	}
	r0 := c[0*ldc : 0*ldc+nr]
	r1 := c[1*ldc : 1*ldc+nr]
	r2 := c[2*ldc : 2*ldc+nr]
	r3 := c[3*ldc : 3*ldc+nr]
	if store {
		r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
		r0[4], r0[5], r0[6], r0[7] = c04, c05, c06, c07
		r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
		r1[4], r1[5], r1[6], r1[7] = c14, c15, c16, c17
		r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
		r2[4], r2[5], r2[6], r2[7] = c24, c25, c26, c27
		r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
		r3[4], r3[5], r3[6], r3[7] = c34, c35, c36, c37
		return
	}
	r0[0] += c00
	r0[1] += c01
	r0[2] += c02
	r0[3] += c03
	r0[4] += c04
	r0[5] += c05
	r0[6] += c06
	r0[7] += c07
	r1[0] += c10
	r1[1] += c11
	r1[2] += c12
	r1[3] += c13
	r1[4] += c14
	r1[5] += c15
	r1[6] += c16
	r1[7] += c17
	r2[0] += c20
	r2[1] += c21
	r2[2] += c22
	r2[3] += c23
	r2[4] += c24
	r2[5] += c25
	r2[6] += c26
	r2[7] += c27
	r3[0] += c30
	r3[1] += c31
	r3[2] += c32
	r3[3] += c33
	r3[4] += c34
	r3[5] += c35
	r3[6] += c36
	r3[7] += c37
}

// Packed computes C += A·B with a throwaway Context. Prefer a long-lived
// Context in hot paths.
func Packed(a, b, c []float32, m, n, k int) {
	var ctx Context
	ctx.Packed(a, b, c, m, n, k)
}
