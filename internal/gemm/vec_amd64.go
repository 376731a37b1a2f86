//go:build amd64 && !noasm

package gemm

// Vectorised row helpers for amd64. FMARow backs the NHWC depthwise
// convolution kernel, whose inner loop is a straight elementwise FMA over
// the channel axis; DepthwiseRow backs the NCHW one and NCHW max and
// average pooling with AVX-512 or AVX2 bodies that keep each output vector
// in a register through all its taps; AXPYRow backs NHWC average pooling
// and the residual add; MaxRow backs NHWC max pooling; GatherTaps backs the
// implicit-GEMM conv gather, moving one stretch of a B panel for all its
// k-rows in one call with masked AVX-512 or AVX2 moves; reluRowHead and
// requantRowHead are the vector heads of the fp32 and int8 GEMM
// epilogues.

// vecAVX2 gates the assembly row helpers on the same probe as the AVX2
// GEMM kernel.
var vecAVX2 = hasAVX2FMA()

// fmaRowAVX2 is FMARow over n elements, a positive multiple of 8.
// Implemented in vec_amd64.s.
//
//go:noescape
func fmaRowAVX2(dst, a, b *float32, n int64)

// axpyRowsAVX2 is AXPYRow for n, rows ≥ 1. Implemented in vec_amd64.s.
//
//go:noescape
func axpyRowsAVX2(dst *float32, ldd int64, x *float32, ldx int64, a float32, n, rows int64)

// maxRowsAVX2 is MaxRow for n, rows ≥ 1. Implemented in vec_amd64.s.
//
//go:noescape
func maxRowsAVX2(dst *float32, ldd int64, x *float32, ldx int64, n, rows int64)

// vecBody is the GatherTaps and DepthwiseRow body this host runs: AVX-512
// where the micro-kernel registry would take its AVX-512 tile, else AVX2.
var vecBody = func() int {
	switch {
	case hasAVX512():
		return bodyAVX512
	case vecAVX2:
		return bodyAVX2
	}
	return bodyGo
}()

// gatherTaps runs GatherTaps on body, whose bounds the caller has proved.
// Strides 1 and 2 go to the vector bodies, which cut each row into whole
// blocks of w outputs (16 on AVX-512, 8 on AVX2) and one last block of
// m ∈ [1, w] under masks: smask keeps its m stores, lmask the
// stride·(m−1)+1 elements its loads need. A masked-off lane is neither read
// nor written and cannot fault, so the last block of the last row may end
// on the last element of x. Other strides take the portable body.
func gatherTaps(body int, dst []float32, ldd int, x []float32, tap []int, n, stride int) {
	if body == bodyGo || stride > 2 {
		gatherTapsGo(dst, ldd, x, tap, n, stride)
		return
	}
	w := 8
	if body == bodyAVX512 {
		w = 16
	}
	full := (n - 1) / w
	m := n - full*w
	smask, lmask := uint32(1)<<m-1, uint32(1)<<(stride*(m-1)+1)-1
	if body == bodyAVX512 {
		gatherTapsAVX512(&dst[0], &x[0], &tap[0], int64(ldd), int64(len(tap)), int64(stride), int64(full), smask, lmask)
	} else {
		gatherTapsAVX2(&dst[0], &x[0], &tap[0], int64(ldd), int64(len(tap)), int64(stride), int64(full), smask, lmask)
	}
}

// gatherTapsAVX512 stores x[tap[i]+j*stride] to dst[i*ldd+j] for i in
// [0, rows) and j in [0, 16*full+m), stride 1 or 2, with smask and lmask
// as gatherTaps sets them. Implemented in vec_amd64.s.
//
//go:noescape
func gatherTapsAVX512(dst, x *float32, tap *int, ldd, rows, stride, full int64, smask, lmask uint32)

// gatherTapsAVX2 is gatherTapsAVX512 in blocks of 8. Implemented in
// vec_amd64.s.
//
//go:noescape
func gatherTapsAVX2(dst, x *float32, tap *int, ldd, rows, stride, full int64, smask, lmask uint32)

// depthwiseRow runs DepthwiseRow on body, whose bounds the caller has
// proved. The vector bodies cut the output plane into columns of w
// outputs (16 on AVX-512, 8 on AVX2) and take each column from top to
// bottom: they turn the ColTap table into the column's lane masks once,
// then keep one output vector of a row in a register from the bias to the
// store. ReLU is fused into the store as max(0, ·), as the epilogues apply
// it; ReLU6 and LeakyReLU rows are finished by ActivateRow.
func depthwiseRow(body int, dst []float32, ldd int, x []float32, ldx int, w []float32, bias float32, d *Depthwise, oy0, rows int) {
	if !depthwiseVector(body, d) {
		depthwiseRowGo(dst, ldd, x, ldx, w, bias, d, oy0, rows, false)
		return
	}
	a := d.args
	a.ldd, a.ldx, a.rows = int64(ldd), int64(ldx), int64(rows)
	a.iy0, a.bias = int64(oy0*d.g.SH-d.g.PadT), bias
	if len(w) == 1 {
		a.wstep, a.wpitch = 0, 0
	}
	taps := d.taps()
	if body == bodyAVX512 {
		depthwiseAVX512(&dst[0], &x[0], &w[0], &taps[0], &a)
	} else {
		depthwiseAVX2(&dst[0], &x[0], &w[0], &taps[0], &a)
	}
	if d.act == ActReLU6 || d.act == ActLeakyReLU {
		for r := 0; r < rows; r++ {
			row := dst[r*ldd:][:d.g.OW]
			ActivateRow(row, row, d.act, d.alpha)
		}
	}
}

// depthwiseAVX512 is DepthwiseRow in columns of 16 outputs, for strides 1
// and 2 and kw ≤ 16. Implemented in vec_amd64.s.
//
//go:noescape
func depthwiseAVX512(dst, x, w *float32, taps *ColTap, a *depthwiseArgs)

// depthwiseAVX2 is depthwiseAVX512 in columns of 8. Implemented in
// vec_amd64.s.
//
//go:noescape
func depthwiseAVX2(dst, x, w *float32, taps *ColTap, a *depthwiseArgs)

// reluRowHead stores relu(src[i]+bias) to dst[i] for the leading elements
// the AVX2 body takes — whole blocks of 8 — and returns how many that was;
// the caller finishes the row with activate. ReLU is the activation every
// zoo model runs after every convolution, and the scalar select costs
// ~0.9 ns an element: a third of conv.depthwise, the whole of the
// pointwise convolutions' epilogue.
func reluRowHead(dst, src []float32, bias float32) int {
	n := len(dst) &^ 7
	if !vecAVX2 || n == 0 {
		return 0
	}
	_ = src[n-1]
	reluRowAVX2(&dst[0], &src[0], bias, int64(n))
	return n
}

// reluRowAVX2 computes dst[i] = relu(src[i]+bias) for i in [0, n); n must
// be a positive multiple of 8. Implemented in vec_amd64.s.
//
//go:noescape
func reluRowAVX2(dst, src *float32, bias float32, n int64)

// requantRowHead stores max(floor, float32(acc[i]-comp)*s+bias) to dst[i]
// for the leading whole blocks of 8 and returns how many that was; floor
// is 0 for ReLU and −Inf for no activation, and requantRow finishes the
// row. This is the int8 convolution's whole epilogue: the scalar loop cost
// ~0.6 ns an element without an activation and ~1.1 with ReLU.
func requantRowHead(dst []float32, acc []int32, comp int32, s, bias, floor float32) int {
	n := len(dst) &^ 7
	if !vecAVX2 || n == 0 {
		return 0
	}
	_ = acc[n-1]
	requantRowAVX2(&dst[0], &acc[0], comp, s, bias, floor, int64(n))
	return n
}

// requantRowAVX2 computes dst[i] = max(floor, float32(acc[i]-comp)*s+bias)
// for i in [0, n); n must be a positive multiple of 8. Implemented in
// vec_amd64.s.
//
//go:noescape
func requantRowAVX2(dst *float32, acc *int32, comp int32, s, bias, floor float32, n int64)
