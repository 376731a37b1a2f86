package gemm

import "math"

// Quantized (u8×s8 → int32) packed GEMM tier.
//
// A CallInt8 runs on the walk and pool every fp32 Call runs on — the same
// units, the same panel loop, the same unit accumulator stored to C once —
// and draws its micro-kernel from its own instance of the same registry
// type (int8Kernels, kernel.go). What is its own is the operands it hands
// the walk (its operands methods below):
//
//   - Operands are quantized: A (weights) is signed int8, B (activations)
//     is unsigned uint8, and the micro-kernels accumulate exact int32 dot
//     products along k-quads of 4 (the VPMADDUBSW / VPDPBUSD reduction
//     unit), so the accumulator is int32.
//
//   - B is always virtual: a PackSrc8 quantizes the fp32 activations once
//     per call into private scratch and packs each kc×nc panel from it
//     (convolution from the NCHW input, dense from the row-major
//     activation matrix), so no int8 activation tensor ever exists.
//
//   - The store is the requantize + bias + activation epilogue, and the
//     only pass that produces fp32 output.
//
// # Value contract
//
// Weights must lie in [-63, 63] (a 7-bit symmetric range; see
// quant.QuantizeRowsInto with QMaxGemm) and activations in [0, 255]. Under
// that contract every VPMADDUBSW pair-sum |a0·b0 + a1·b1| ≤ 2·63·255 =
// 32130 < 32767 fits int16, so the saturating AVX2 instruction can never
// saturate, and all kernels (go, avx2, vnni) produce bit-identical int32
// accumulators. The int32 accumulator itself cannot overflow for any
// K ≤ 2^31 / (255·63·4) ≈ 33 million.
//
// # Scale propagation
//
// Activations are quantized asymmetrically, q = clamp(round(x/s) + z, 0,
// 255), with one (s, z) pair per image (convolution) or per sample column
// (dense, ColQuant). Zero quantizes exactly to z, so implicit convolution
// padding contributes exactly zero after compensation. Weights are
// per-output-channel symmetric: w ≈ ScaleA[r] · A[r][k]. The epilogue
// reconstructs
//
//	C[r][j] = ScaleA[r]·BScale[·]·(acc[r][j] − BZero[·]·RowSum[r]) + bias
//
// with the zero-point compensation BZero·RowSum done exactly in int32,
// then applies the fused activation — the dequantize, bias and activation
// sweeps all collapse into the tile store.

// kQuad is the k-grouping of the int8 packed layouts: both panel formats
// interleave 4 consecutive k values per row/column so a 32-bit lane holds
// one dot-product quad.
const kQuad = 4

// PackSrc8 supplies the virtual quantized B operand of a CallInt8 panel by
// panel. Implementations must be safe for concurrent PackPanel8 calls and
// must quantize deterministically: the pool packs panels of one call from
// several goroutines, and overlapping panels must agree on shared values.
type PackSrc8 interface {
	// PackPanel8 writes the quantized kc×nc panel of image img's B matrix
	// starting at row pp, column jj into dst, in the int8 B layout: strips
	// of nr columns; within a strip, k-quads of 4 rows; within a quad, 4
	// consecutive k bytes per column. Element (p, j) of the panel lands at
	// dst[strip*nr*kcq4 + (p/4)*nr*4 + (j%nr)*4 + p%4] with strip = j/nr
	// and kcq4 = roundUp(kc, 4). Rows beyond kc and columns beyond nc must
	// be zero so edge strips are full quads. dst holds at least
	// roundUp(nc, nr) * roundUp(kc, 4) bytes.
	PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int)
}

// CallInt8 describes one quantized GEMM: a fp32 C produced from an int8 A
// (M×K weights, typically prepacked once per plan) and a virtual uint8 B
// (K×N activations, quantized at the pack boundary), C always overwritten.
//
// Batch > 1 runs images over a shared A: image i's B panels come from
// B.PackPanel8(..., img=i, ...) and its output lands at C[i*StrideC:].
//
// TransC stores the transpose: C[j*M+r] instead of C[r*N+j], so a dense
// layer can run as Yᵀ = W·Xᵀ without transposing the weight matrix or the
// stored output. TransC requires ColQuant and an unbatched call.
//
// ScaleA and RowSum are per-row (per output channel) weight metadata:
// ScaleA[r] the symmetric quantization scale, RowSum[r] the int32 sum of
// row r's quantized weights (for zero-point compensation). BScale/BZero
// are the activation quantization parameters: indexed by image when
// ColQuant is false, by column when true. BiasRow, Act and Alpha describe
// the fused epilogue exactly as in Call.
type CallInt8 struct {
	A       []int8 // M×K row-major signed weights; nil when PackedA is set
	PackedA []int8 // prepacked panels from PrepackAInt8
	B       PackSrc8
	C       []float32
	M, N, K int

	Batch   int // number of images; 0 and 1 mean a single GEMM
	StrideC int // element offset between consecutive images' C windows

	TransC   bool // store C[j*M+r] (N×M layout); requires ColQuant, Batch ≤ 1
	ColQuant bool // BScale/BZero are per column (dense samples), not per image

	ScaleA []float32 // per-row weight scales, len ≥ M
	RowSum []int32   // per-row quantized-weight sums, len ≥ M
	BScale []float32 // activation scales, len ≥ N (ColQuant) or ≥ images
	BZero  []int32   // activation zero points, matching BScale's indexing

	BiasRow []float32  // optional per-row epilogue bias, len ≥ M
	Act     Activation // epilogue activation, applied after the bias add
	Alpha   float32    // LeakyReLU slope
}

// images returns the batch count, treating the zero value as 1.
func (c *CallInt8) images() int {
	if c.Batch < 2 {
		return 1
	}
	return c.Batch
}

// validate panics if the call is malformed or the buffers cannot hold the
// described matrices. PackedA is checked against the active int8 kernel's
// geometry, which must match the geometry it was packed under.
func (c *CallInt8) validate() {
	if c.M < 0 || c.N < 0 || c.K < 0 {
		panicf("gemm: negative dimension m=%d n=%d k=%d", c.M, c.N, c.K)
	}
	if c.M == 0 || c.N == 0 {
		return
	}
	if c.B == nil {
		panicf("gemm: int8 call requires a PackSrc8 B operand")
	}
	images := c.images()
	if c.TransC {
		if !c.ColQuant {
			panicf("gemm: TransC requires ColQuant")
		}
		if images > 1 {
			panicf("gemm: TransC cannot be batched")
		}
	}
	if len(c.ScaleA) < c.M || len(c.RowSum) < c.M {
		panicf("gemm: ScaleA/RowSum %d/%d too short for m=%d", len(c.ScaleA), len(c.RowSum), c.M)
	}
	bq := images
	if c.ColQuant {
		bq = c.N
	}
	if len(c.BScale) < bq || len(c.BZero) < bq {
		panicf("gemm: BScale/BZero %d/%d too short for %d quant groups", len(c.BScale), len(c.BZero), bq)
	}
	if c.BiasRow != nil && len(c.BiasRow) < c.M {
		panicf("gemm: BiasRow %d too short for m=%d", len(c.BiasRow), c.M)
	}
	if images > 1 && c.StrideC < c.M*c.N {
		panicf("gemm: batch C stride %d overlaps %dx%d images", c.StrideC, c.M, c.N)
	}
	if len(c.C) < (images-1)*c.StrideC+c.M*c.N {
		panicf("gemm: C buffer %d too small for %dx%d × %d images", len(c.C), c.M, c.N, images)
	}
	if c.K == 0 {
		return
	}
	if c.PackedA != nil {
		if len(c.PackedA) < PackedAInt8Size(c.M, c.K) {
			panicf("gemm: PackedA %d too small for int8 m=%d k=%d", len(c.PackedA), c.M, c.K)
		}
	} else if len(c.A) < c.M*c.K {
		panicf("gemm: A buffer %d too small for %dx%d", len(c.A), c.M, c.K)
	}
}

// RunInt8 executes the quantized call single-threaded. Hot paths should
// hold a long-lived Context so the int8 packing and accumulator scratch is
// reused across calls.
func (ctx *Context) RunInt8(c CallInt8) {
	var serial *Pool // a one-worker call runs on the caller alone
	serial.RunInt8(ctx, c, 1)
}

// RunInt8 executes the quantized call using up to workers goroutines, the
// caller included, exactly as Run does an fp32 one. ctx supplies the
// caller's packing and accumulator scratch.
func (p *Pool) RunInt8(ctx *Context, c CallInt8, workers int) {
	ctx.call8 = c
	ctx.gemm8 = work[int8, byte, int32]{call: &ctx.call8, reg: int8Kernels}
	p.run(ctx, &ctx.gemm8, workers)
	ctx.call8 = CallInt8{}
}

// dims implements operands.
func (c *CallInt8) dims() (m, n, k, images int) {
	c.validate()
	return c.M, c.N, c.K, c.images()
}

func (c *CallInt8) scratch(ctx *Context) *scratch[int8, byte, int32] { return &ctx.i8 }

// epilogue implements operands: no int8 kernel finishes its output.
func (c *CallInt8) epilogue() (epi, bool) { return epi{}, false }

// window implements operands; it is never called.
func (c *CallInt8) window(_, _, _ int) ([]int32, int) { return nil, 0 }

// panelA implements operands. A prepacked panel starts where
// PrepackAInt8Into put it.
func (c *CallInt8) panelA(s *scratch[int8, byte, int32], kern *kernel[int8, byte, int32], _, ii, pp, mc, kc int) []int8 {
	if c.PackedA != nil {
		return c.PackedA[roundUp(c.M, kern.mr)*pp+ii*roundUp(kc, kQuad):]
	}
	s.a = grow(s.a, aScratch)
	packAInt8(s.a, c.A, ii, pp, mc, kc, c.K, kern.mr)
	return s.a
}

// panelB implements operands: the pack source quantizes and packs.
func (c *CallInt8) panelB(s *scratch[int8, byte, int32], kern *kernel[int8, byte, int32], img, pp, jj, kc, nc int) []byte {
	s.b = grow(s.b, bScratch)
	c.B.PackPanel8(s.b, img, pp, jj, kc, nc, kern.nr)
	return s.b
}

// activate applies the epilogue activation to one value. The selects are
// written over the value's bits so they compile to conditional moves: the
// sign of a pre-activation is close to a coin flip, and a branch on it
// mispredicts its way to several times the cost of the requantize
// arithmetic. Results match the branching form bit for bit (−0 and NaN
// pass through).
func activate(v float32, act Activation, alpha float32) float32 {
	b := math.Float32bits(v)
	switch act {
	case ActReLU:
		if v < 0 {
			b = 0
		}
	case ActReLU6:
		if v < 0 {
			b = 0
		}
		if v > 6 {
			b = math.Float32bits(6)
		}
	case ActLeakyReLU:
		if n := math.Float32bits(alpha * v); v < 0 {
			b = n
		}
	}
	return math.Float32frombits(b)
}

// store implements operands with the requantize epilogue: it converts the
// live mc×nc region of the int32 accumulator (row stride ldc) into fp32,
// applying zero-point compensation, the combined weight×activation scale,
// the bias add and the activation, and stores it to the call's C layout.
// This is the only pass that touches C, and it writes each element once.
// The per-image (convolution) form sends the two activations resnet-18
// runs through requantRow, a vector row on AVX2 hosts; the others take the
// general loop, with its per-element switch on the activation.
func (c *CallInt8) store(acc []int32, ldc, img, ii, jj, mc, nc int) {
	if c.TransC {
		for j := 0; j < nc; j++ {
			col := c.C[(jj+j)*c.M+ii : (jj+j)*c.M+ii+mc]
			sB := c.BScale[jj+j]
			z := c.BZero[jj+j]
			for r := range col {
				v := float32(acc[r*ldc+j]-z*c.RowSum[ii+r]) * (c.ScaleA[ii+r] * sB)
				if c.BiasRow != nil {
					v += c.BiasRow[ii+r]
				}
				col[r] = activate(v, c.Act, c.Alpha)
			}
		}
		return
	}
	base := img*c.StrideC + jj
	alpha := c.Alpha
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
				row[i] = activate(float32(a-c.BZero[jj+i]*rs)*(sA*c.BScale[jj+i])+bv, c.Act, alpha)
			}
			continue
		}
		s := sA * c.BScale[img]
		comp := c.BZero[img] * rs
		switch c.Act {
		case ActNone, ActReLU:
			requantRow(row, arow, comp, s, bv, c.Act == ActReLU)
		default:
			for i, a := range arow {
				row[i] = activate(float32(a-comp)*s+bv, c.Act, alpha)
			}
		}
	}
}

// packAInt8 packs an mc×kc panel of the int8 A (row ii, col pp) into
// strips of mr rows in the k-quad layout: within each strip, quad q holds
// rows' 4 consecutive k bytes back to back, so a VPBROADCASTD of
// strip[(q*mr+r)*4] yields row r's quad. Rows beyond mc and k beyond kc
// are zero-padded.
func packAInt8(dst, a []int8, ii, pp, mc, kc, lda, mr int) {
	kcq := (kc + kQuad - 1) / kQuad
	di := 0
	for i := 0; i < mc; i += mr {
		live := min(mr, mc-i)
		for q := 0; q < kcq; q++ {
			p0 := q * kQuad
			for r := 0; r < mr; r++ {
				if r >= live {
					dst[di], dst[di+1], dst[di+2], dst[di+3] = 0, 0, 0, 0
					di += 4
					continue
				}
				row := a[(ii+i+r)*lda+pp:]
				for t := 0; t < kQuad; t++ {
					if p0+t < kc {
						dst[di] = row[p0+t]
					} else {
						dst[di] = 0
					}
					di++
				}
			}
		}
	}
}

// PackedAInt8Size returns the buffer length PrepackAInt8Into requires for
// an m×k int8 matrix under the active int8 kernel: rows padded to mr, k
// padded to whole quads.
func PackedAInt8Size(m, k int) int {
	return roundUp(m, int8Kernels.get().mr) * roundUp(k, kQuad)
}

// PrepackAInt8Into packs the whole m×k int8 matrix a into dst, which must
// hold PackedAInt8Size(m, k) bytes, in the fp32 layout with k padded to
// whole quads per k-panel: panel (pp, ii) starts at roundUp(m,mr)*pp +
// ii*roundUp(kc,4) (kcBlock is a multiple of 4, so only the final k-panel
// pads k).
func PrepackAInt8Into(dst, a []int8, m, k int) { prepackA(int8Kernels, packAInt8, dst, a, m, k) }

// PrepackAInt8 allocates and fills the packed-panel form of the m×k int8
// matrix a.
func PrepackAInt8(a []int8, m, k int) []int8 {
	dst := make([]int8, PackedAInt8Size(m, k))
	PrepackAInt8Into(dst, a, m, k)
	return dst
}

// RowSumsInt8 writes the int32 sum of each row of the m×k int8 matrix a
// into dst (len ≥ m) — the per-output-channel zero-point compensation term
// consumed by CallInt8.RowSum.
func RowSumsInt8(dst []int32, a []int8, m, k int) {
	for r := 0; r < m; r++ {
		var s int32
		row := a[r*k : (r+1)*k]
		for _, v := range row {
			s += int32(v)
		}
		dst[r] = s
	}
}

// microKernel8Go is the portable int8 micro-kernel: a 4x8 int32
// accumulator block fed by k-quads, the bit-exactness reference for the
// SIMD kernels. pa is packed as quads of 4 rows × 4 bytes, pb as quads of
// 8 columns × 4 bytes. It finishes nothing: the int8 tier requantizes in
// its store.
func microKernel8Go(pa []int8, pb []byte, acc []int32, kq, ldc int, store bool, _ *epi, _, _ int) {
	const mr, nr = 4, 8
	var c0, c1, c2, c3 [nr]int32
	pa = pa[:kq*mr*kQuad]
	pb = pb[:kq*nr*kQuad]
	for q := 0; q < kq; q++ {
		ab := pa[q*mr*kQuad : q*mr*kQuad+mr*kQuad : q*mr*kQuad+mr*kQuad]
		bb := pb[q*nr*kQuad : q*nr*kQuad+nr*kQuad : q*nr*kQuad+nr*kQuad]
		a00, a01, a02, a03 := int32(ab[0]), int32(ab[1]), int32(ab[2]), int32(ab[3])
		a10, a11, a12, a13 := int32(ab[4]), int32(ab[5]), int32(ab[6]), int32(ab[7])
		a20, a21, a22, a23 := int32(ab[8]), int32(ab[9]), int32(ab[10]), int32(ab[11])
		a30, a31, a32, a33 := int32(ab[12]), int32(ab[13]), int32(ab[14]), int32(ab[15])
		for j := 0; j < nr; j++ {
			b0 := int32(bb[j*kQuad+0])
			b1 := int32(bb[j*kQuad+1])
			b2 := int32(bb[j*kQuad+2])
			b3 := int32(bb[j*kQuad+3])
			c0[j] += a00*b0 + a01*b1 + a02*b2 + a03*b3
			c1[j] += a10*b0 + a11*b1 + a12*b2 + a13*b3
			c2[j] += a20*b0 + a21*b1 + a22*b2 + a23*b3
			c3[j] += a30*b0 + a31*b1 + a32*b2 + a33*b3
		}
	}
	r0 := acc[0*ldc : 0*ldc+nr]
	r1 := acc[1*ldc : 1*ldc+nr]
	r2 := acc[2*ldc : 2*ldc+nr]
	r3 := acc[3*ldc : 3*ldc+nr]
	if store {
		copy(r0, c0[:])
		copy(r1, c1[:])
		copy(r2, c2[:])
		copy(r3, c3[:])
		return
	}
	for j := 0; j < nr; j++ {
		r0[j] += c0[j]
		r1[j] += c1[j]
		r2[j] += c2[j]
		r3[j] += c3[j]
	}
}
