package gemm

// Packing + micro-kernel GEMM, and the walk both dtypes run on. Panels of
// A and B are repacked into contiguous strips sized for the
// register-blocked micro-kernel, which computes one mr×nr block per inner
// iteration. The micro-kernel (and with it the mr×nr geometry) is selected
// at runtime by CPU-feature dispatch — see kernel.go; the pure-Go 4x8
// kernel below is the portable fallback and the correctness reference for
// the SIMD ones.
//
// A raw B panel is packed by packB as one GatherTaps call per strip — the
// masked-vector strided move the convolution pack sources use — and every
// packer zero-pads the last strip with ClearEdgeCols. The packed layout is
// always whole strips. A finishing kernel (the fp32 Go, AVX2 and AVX-512
// ones) computes a last strip of cols < nr columns at that width with its
// column edge — cols FMAs per k step instead of nr — and an M-tile's last
// strip of rows < mr rows at that height with its row edge, each element
// the chain the padded tile would run, so outputs do not change. Tiles and
// edges then cover a unit's block of C exactly: they accumulate its
// k-panels in C and finish each element there (see runUnit), and a
// batch-1 dense layer is the row edge alone, a GEMV over the packed
// weights. The NEON kernel and the int8 tier run every strip as a padded
// tile into the unit accumulator, which the call's store writes to C; the
// int8 AMX kernel does so one whole M-tile k-panel per call (a panel
// kernel), which configures the tile unit once for all of its tiles.
//
// The fp32 entry point is Call executed through Context.Run or, with a
// worker budget, Pool.Run — the same walk over the same units (pool.go);
// CallInt8 (int8.go) supplies the walk its own operands. Either fp32
// operand may be supplied prepacked (see prepack.go) so run-invariant
// weights are packed once per model instead of once per inference.

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
// Every production call stores; the accumulating form, kept for tests,
// sums a unit's k-panels apart and adds the sum to C once.
//
// PackedA/PackedB, when non-nil, are panel buffers produced by
// PrepackA/PrepackB and replace the corresponding raw operand, which may
// then be nil. Store with K == 0 zeroes C (a BLAS beta=0 product with an
// empty shared dimension).
//
// Batch > 1 describes a batch of GEMMs, image i written to C[i*StrideC:],
// whose per-image operand is a pack source: BPack with a shared A (or
// PackedA), or APack with a shared B (or PackedB). The source is handed the
// image index. This is the shape of batched inference through a constant
// weight matrix — the packed weight panels are loaded once and reused
// across the whole batch, and a worker Pool claims the units of every
// image from one counter. A raw or prepacked B is a single image's, so a
// batched call must have a pack source.
//
// BPack, when non-nil, replaces the B operand entirely: the packed tier
// asks the source for each kc×nc panel instead of re-packing a
// materialised matrix, so B may be nil. Implicit-GEMM convolution packs
// panels straight from the NCHW input this way. BPack cannot be combined
// with PackedB.
//
// APack is the A-side mirror of BPack: a virtual A operand packed panel by
// panel, replacing A/PackedA. Unlike BPack it composes with PackedB — this
// is the shape of NHWC implicit-GEMM convolution, where the constant
// weight panels are the (prepacked, batch-shared) B operand and the
// per-image receptive fields are gathered as A.
//
// Ldc, when non-zero, is the row stride of C in elements (Ldc ≥ N): C is an
// M×N window of a wider row-major matrix. Grouped convolution writes each
// group's output-channel slice in place this way. Zero means dense (Ldc=N).
//
// BiasRow, BiasCol, Act and Alpha describe a fused epilogue applied once
// per output element as it is written to C (see epilogue.go):
// BiasRow[i] is added to every element of row i (convolution output
// channels), BiasCol[j] to every element of column j (dense output
// features), then Act runs, replacing the separate post-GEMM bias and
// activation sweeps.
type Call struct {
	A, B, C []float32
	M, N, K int
	PackedA []float32
	PackedB []float32
	Store   bool

	Ldc int // row stride of C in elements; 0 means N (dense)

	Batch   int // number of images; 0 and 1 mean a single GEMM
	StrideC int // element offset between consecutive images' C

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
		// The per-image operand comes from a pack source; raw and
		// prepacked operands are one image's.
		if c.BPack == nil && c.APack == nil {
			panicf("gemm: batched call needs a BPack or APack source")
		}
		// Image windows must not overlap: tiles of different images are
		// scheduled concurrently and assume disjoint C regions.
		if c.StrideC < rowsC {
			panicf("gemm: batch C stride %d overlaps %dx%d images", c.StrideC, c.M, c.N)
		}
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
	} else if len(c.B) < c.K*c.N {
		panicf("gemm: B buffer %d too small for %dx%d", len(c.B), c.K, c.N)
	}
}

// Context holds the scratch of packed GEMM — per dtype, the packed panels
// and the unit accumulator (fp32 units that run in C never grow it), each
// grown on first use — so repeated calls (the common case during
// inference) do not reallocate. The zero value is ready to use. A Context
// is not safe for concurrent use.
type Context struct {
	f32 scratch[float32, float32, float32]
	i8  scratch[int8, byte, int32]

	// The call a Run or RunInt8 walks, and its cut. The walk reaches a
	// call's operands through an interface, which would move a call
	// parameter to the heap on every run; a Context is there already, and
	// pool helpers read the caller's.
	call  Call
	call8 CallInt8
	gemm  work[float32, float32, float32]
	gemm8 work[int8, byte, int32]
}

// scratch is one dtype's packed-panel buffers and unit accumulator.
type scratch[A, B, C any] struct {
	a   []A
	b   []B
	acc []C
}

// grow returns buf resliced to its capacity, reallocated first when that
// is below n.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:cap(buf)]
}

// Panel scratch is padded up to full micro-tiles of the largest tile any
// kernel may register (maxMR×maxNR), so it never depends on dispatch: an
// mc×kc A panel needs at most maxMR extra rows, and a kc×nc B panel at most
// maxNR extra columns.
const (
	aScratch = (mcBlock + maxMR) * kcBlock
	bScratch = (ncBlock + maxNR) * kcBlock
)

// Run executes the call single-threaded. Hot inference paths should hold a
// long-lived Context so the packing buffers are reused across calls.
func (ctx *Context) Run(c Call) {
	var serial *Pool // a one-worker call runs on the caller alone
	serial.Run(ctx, c, 1)
}

// operands is what a call type supplies to the walk, which is otherwise
// the same for both dtypes.
type operands[A, B, C any] interface {
	// dims validates the call and returns its shape; m is 0 when the call
	// has no units.
	dims() (m, n, k, images int)
	// scratch returns the dtype's scratch of ctx.
	scratch(ctx *Context) *scratch[A, B, C]
	// panelA and panelB return the packed mc×kc panel of image img's A at
	// (ii, pp) and its kc×nc panel of B at (pp, jj), in kern's geometry,
	// packing into s when the operand is not prepacked.
	panelA(s *scratch[A, B, C], kern *kernel[A, B, C], img, ii, pp, mc, kc int) []A
	panelB(s *scratch[A, B, C], kern *kernel[A, B, C], img, pp, jj, kc, nc int) []B
	// epilogue reports whether a finishing kernel may run the call's
	// units in C itself, and the epilogue its bodies then apply.
	epilogue() (e epi, ok bool)
	// window returns image img's C from row i0, column jj, and its row
	// stride, for a unit that runs in C.
	window(img, i0, jj int) (out []C, ldc int)
	// store writes a finished unit — rows×nc of acc, row stride ldc — to
	// image img's C at (i0, jj), through the call's epilogue.
	store(acc []C, ldc, img, i0, jj, rows, nc int)
}

// work is one call of either dtype cut into units (see blocking). kern is
// the micro-kernel resolved by plan, so every unit of one call — caller-
// and helper-executed — packs and computes with the same geometry; inC
// says whether its units run in C, finished by fin.
type work[A, B, C any] struct {
	call operands[A, B, C]
	reg  *registry[A, B, C]
	kern *kernel[A, B, C]
	k    int
	grid unitGrid
	fin  epi
	inC  bool
}

// plan implements unitWork.
func (w *work[A, B, C]) plan(workers int) int {
	m, n, k, images := w.call.dims()
	if m == 0 || n == 0 {
		return 0
	}
	w.kern, w.k = w.reg.get(), k
	w.grid = blocking(m, n, images, workers, w.kern.mc)
	w.fin, w.inC = w.call.epilogue()
	w.inC = w.inC && w.kern.row != nil
	return w.grid.units()
}

// runUnit implements unitWork: rows [i0, i1) × columns [jj, jj+nc) of one
// image's C across the full K extent. A finishing kernel runs the unit in
// C itself when the call allows it: its k-panels accumulate there, and
// the last one adds the bias and applies the activation in registers
// before the one store of each element. Otherwise the unit accumulates in
// the Context's unit accumulator — full micro-tiles in the padded
// geometry, so there is no edge staging — and the call stores it to C in
// a single pass, with its epilogue, while it is cache-hot. Every C element
// sums its k-panels in ascending order whatever the cut or the path, so
// the result depends on neither. K == 0 stores a zero accumulator (the
// epilogue only).
func (w *work[A, B, C]) runUnit(ctx *Context, unit int) {
	img, i0, i1, jj, nc := w.grid.unit(unit)
	s := w.call.scratch(ctx)
	if w.inC {
		out, ldc := w.call.window(img, i0, jj)
		w.sweep(s, out, ldc, img, i0, i1, jj, nc)
		return
	}
	ldc := roundUp(nc, w.kern.nr)
	size := roundUp(i1-i0, w.kern.mr) * ldc
	s.acc = grow(s.acc, size)
	if w.k == 0 {
		clear(s.acc[:size])
	}
	w.sweep(s, s.acc, ldc, img, i0, i1, jj, nc)
	w.call.store(s.acc, ldc, img, i0, jj, i1-i0, nc)
}

// sweep runs the unit's k-panels into out, row stride ldc. For every
// k-panel the B panel is packed (or located) once and swept by each M-tile
// of the row group; a panel kernel takes the whole M-tile in one call. A
// kernel with a column edge takes a last strip narrower than nr at its
// exact width, in one call per M-tile; the others run it padded. When the unit runs in C, out is C: the row edge takes an
// M-tile's last strip shorter than mr at its exact height, and the last
// k-panel finishes every element with the call's epilogue. Otherwise out
// is the unit accumulator and every strip is a whole tile.
func (w *work[A, B, C]) sweep(s *scratch[A, B, C], out []C, ldc, img, i0, i1, jj, nc int) {
	kern, kg := w.kern, w.reg.kgroup
	whole, cols := roundUp(nc, kern.nr), 0 // columns the tile covers; the edge's rest
	if kern.edge != nil {
		cols = nc % kern.nr
		whole = nc - cols
	}
	for pp := 0; pp < w.k; pp += kcBlock {
		kc := min(kcBlock, w.k-pp)
		kd := ceilDiv(kc, kg)
		first := pp == 0
		var e *epi // finishes nothing before the last panel
		if w.inC && pp+kc == w.k {
			e = &w.fin
		}
		pb := w.call.panelB(s, kern, img, pp, jj, kc, nc)
		for ii := i0; ii < i1; ii += kern.mc {
			mc := min(kern.mc, i1-ii)
			pa := w.call.panelA(s, kern, img, ii, pp, mc, kc)
			tile := out[(ii-i0)*ldc:]
			full, part := roundUp(mc, kern.mr), 0 // rows the tile covers; the row edge's rest
			if kern.panel != nil {
				kern.panel(pa, pb, tile, kd, ldc, full/kern.mr, whole/kern.nr, first)
				continue
			}
			if w.inC {
				part = mc % kern.mr
				full = mc - part
			}
			for i := 0; i < full; i += kern.mr {
				aStrip := pa[i*kd*kg:]
				for j := 0; j < whole; j += kern.nr {
					kern.micro(aStrip, pb[j*kd*kg:], tile[i*ldc+j:], kd, ldc, first, e, ii+i, jj+j)
				}
			}
			if cols > 0 && full > 0 {
				kern.edge(pa, pb[whole*kd*kg:], tile[whole:], kd, ldc, full/kern.mr, cols, first, e, ii, jj+whole)
			}
			if part > 0 {
				kern.row(pa[full*kd*kg:], pb, tile[full*ldc:], kd, ldc, part, nc, first, e, ii+full, jj)
			}
		}
	}
}

// dims implements operands. An empty C, or an accumulating product over an
// empty shared dimension, has no units.
func (c *Call) dims() (m, n, k, images int) {
	c.validate()
	if c.K == 0 && !c.Store {
		return 0, 0, 0, 0
	}
	return c.M, c.N, c.K, c.images()
}

func (c *Call) scratch(ctx *Context) *scratch[float32, float32, float32] { return &ctx.f32 }

// epilogue implements operands. A storing call with a shared dimension,
// at most one bias vector and no activation other than ReLU runs in C;
// the rest — the accumulating form, which sums a unit's k-panels apart,
// K == 0, both biases at once, ReLU6 and LeakyReLU — goes through store.
func (c *Call) epilogue() (epi, bool) {
	if !c.Store || c.K == 0 || c.BiasRow != nil && c.BiasCol != nil || c.Act != ActNone && c.Act != ActReLU {
		return epi{}, false
	}
	return epi{row: c.BiasRow, col: c.BiasCol, relu: c.Act == ActReLU}, true
}

// window implements operands.
func (c *Call) window(img, i0, jj int) ([]float32, int) {
	ldc := c.ldc()
	return c.C[img*c.StrideC+i0*ldc+jj:], ldc
}

// panelA implements operands. A prepacked panel starts where PrepackAInto
// put it.
func (c *Call) panelA(s *scratch[float32, float32, float32], kern *kernel[float32, float32, float32], img, ii, pp, mc, kc int) []float32 {
	if c.PackedA != nil {
		return c.PackedA[roundUp(c.M, kern.mr)*pp+ii*kc:]
	}
	s.a = grow(s.a, aScratch)
	if c.APack != nil {
		c.APack.PackPanelA(s.a, img, ii, pp, mc, kc, kern.mr)
	} else {
		packA(s.a, c.A, ii, pp, mc, kc, c.K, kern.mr)
	}
	return s.a
}

// panelB implements operands. A pack source is handed the image index;
// every image shares a raw or prepacked B.
func (c *Call) panelB(s *scratch[float32, float32, float32], kern *kernel[float32, float32, float32], img, pp, jj, kc, nc int) []float32 {
	if c.PackedB != nil {
		return c.PackedB[roundUp(c.N, kern.nr)*pp+jj*kc:]
	}
	s.b = grow(s.b, bScratch)
	if c.BPack != nil {
		c.BPack.PackPanel(s.b, img, pp, jj, kc, nc, kern.nr)
	} else {
		packB(s.b, c.B, pp, jj, kc, nc, c.N, kern.nr)
	}
	return s.b
}

// PackedStore computes C = A·B, overwriting C. Kernels that fully produce
// their output this way spare the runtime an arena zero-fill.
func (ctx *Context) PackedStore(a, b, c []float32, m, n, k int) {
	ctx.Run(Call{A: a, B: b, C: c, M: m, N: n, K: k, Store: true})
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
// columns, row-major within each strip: one GatherTaps call per strip over
// the panel's row offsets, so each strip row is a masked vector move
// rather than a copy call. Columns beyond nc are zero-padded.
func packB(dst, b []float32, pp, jj, kc, nc, ldb, nr int) {
	var tab [MaxPanelK]int
	tap := tab[:kc]
	for p := range tap {
		tap[p] = (pp + p) * ldb
	}
	for j := 0; j < nc; j += nr {
		GatherTaps(dst[j*kc:], nr, b[jj+j:], tap, min(nr, nc-j), 1)
	}
	ClearEdgeCols(dst, kc, nr, nc)
}

// microKernelGo is the portable 4x8 micro-kernel: C[r][cc] (+)= sum_p
// A[p][r]*B[p][cc] with the mr×nr block held in scalar registers. pa is
// packed as kc groups of 4 values; pb as kc groups of 8 values. ldc is the
// row stride of c; store overwrites C instead of accumulating, and e
// finishes each element — row r, column j of e's call first — before it
// is written.
func microKernelGo(pa, pb, c []float32, kc, ldc int, store bool, e *epi, r0, j0 int) {
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
	sums := [mr][nr]float32{
		{c00, c01, c02, c03, c04, c05, c06, c07},
		{c10, c11, c12, c13, c14, c15, c16, c17},
		{c20, c21, c22, c23, c24, c25, c26, c27},
		{c30, c31, c32, c33, c34, c35, c36, c37},
	}
	for r := range sums {
		row := c[r*ldc : r*ldc+nr : r*ldc+nr]
		for j, x := range sums[r] {
			if !store {
				x += row[j]
			}
			row[j] = e.apply(x, r0+r, j0+j)
		}
	}
}

// edgeGo is microKernelGo's exact-width edge: the first cols columns of one
// 8-wide B strip against strips consecutive 4-row A strips, each element
// the same chain microKernelGo runs for it — the same products, summed in
// the same k order from +0, added to c (or stored) and finished by e the
// same way. Only which of two NaN payloads survives an operation is the
// compiler's choice, here as in microKernelGo.
func edgeGo(pa, pb, c []float32, kd, ldc, strips, cols int, store bool, e *epi, r0, j0 int) {
	const mr, nr = 4, 8
	pb = pb[:kd*nr]
	for s := 0; s < strips; s++ {
		a := pa[s*kd*mr:][:kd*mr]
		t := c[s*mr*ldc:]
		for j := 0; j < cols; j++ {
			var sums [mr]float32
			for p := 0; p < kd; p++ {
				a4 := a[p*mr : p*mr+mr : p*mr+mr]
				b := pb[p*nr+j]
				sums[0] += a4[0] * b
				sums[1] += a4[1] * b
				sums[2] += a4[2] * b
				sums[3] += a4[3] * b
			}
			for r, x := range sums {
				if !store {
					x += t[r*ldc+j]
				}
				t[r*ldc+j] = e.apply(x, r0+s*mr+r, j0+j)
			}
		}
	}
}

// rowGo is microKernelGo's exact-height row edge: the first rows < 4 rows
// of one A strip against the first nc columns of the B panel's 8-wide
// strips, each element microKernelGo's chain for it, added to c (or
// stored) and finished by e the same way.
func rowGo(pa, pb, c []float32, kd, ldc, rows, nc int, store bool, e *epi, r0, j0 int) {
	const mr, nr = 4, 8
	pa = pa[:kd*mr]
	for j := 0; j < nc; j++ {
		b := pb[j/nr*kd*nr+j%nr:]
		for r := 0; r < rows; r++ {
			var x float32
			for p := 0; p < kd; p++ {
				x += pa[p*mr+r] * b[p*nr]
			}
			if !store {
				x += c[r*ldc+j]
			}
			c[r*ldc+j] = e.apply(x, r0+r, j0+j)
		}
	}
}
