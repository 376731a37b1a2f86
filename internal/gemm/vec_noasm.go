//go:build !amd64 || noasm

package gemm

// FMARow computes dst[i] += a[i]*b[i] for i in [0, len(dst)). a and b must
// be at least as long as dst. Portable form; amd64 dispatches to an
// AVX2/FMA loop when the CPU supports it.
func FMARow(dst, a, b []float32) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// AXPYRow is one scalar times a run of an input row, added to a run of an
// output row, applied to rows consecutive rows in one call:
//
//	dst[r*ldd+i] += a * x[r*ldx+i*stride]   r in [0, rows), i in [0, n)
//
// dst and x must reach the last element that touches. Portable form;
// amd64 dispatches stride 1 to an AVX2/FMA loop when the CPU supports it.
func AXPYRow(dst []float32, ldd int, x []float32, ldx, stride int, a float32, n, rows int) {
	if n > 0 {
		axpyRowGo(dst, ldd, x, ldx, stride, a, n, rows)
	}
}

// MaxRow is the row primitive of max pooling — a run of an input row
// folded into a run of an output row with max — applied to rows consecutive
// rows in one call:
//
//	dst[r*ldd+i] = max(dst[r*ldd+i], x[r*ldx+i*stride])   r in [0, rows), i in [0, n)
//
// dst keeps its value unless x is greater. dst and x must reach the last
// element that touches. Portable form; amd64 dispatches strides 1 and 2 to
// AVX2 loops when the CPU supports them.
func MaxRow(dst []float32, ldd int, x []float32, ldx, stride, n, rows int) {
	if n > 0 {
		maxRowGo(dst, ldd, x, ldx, stride, n, rows)
	}
}

// vecBody is the GatherTaps and DepthwiseRow body this build runs: the
// portable one.
const vecBody = bodyGo

// gatherTaps runs the portable GatherTaps body, the only one here; amd64
// runs AVX-512 or AVX2 bodies at strides 1 and 2.
func gatherTaps(body int, dst []float32, ldd int, x []float32, tap []int, n, stride int) {
	gatherTapsGo(dst, ldd, x, tap, n, stride)
}

// depthwiseRow runs the portable DepthwiseRow body, the only one here;
// amd64 runs AVX-512 or AVX2 bodies at strides 1 and 2.
func depthwiseRow(body int, dst []float32, ldd int, x []float32, ldx int, w []float32, bias float32, d *Depthwise, oy0, rows int) {
	depthwiseRowGo(dst, ldd, x, ldx, w, bias, d, oy0, rows, false)
}

// reluRowHead reports that no leading elements were taken: there is no
// vector body here, and the caller's activate loop does the whole row.
func reluRowHead(dst, src []float32, bias float32) int { return 0 }

// requantRowHead reports that no leading elements were taken: requantRow's
// loops do the whole row.
func requantRowHead(dst []float32, acc []int32, comp int32, s, bias, floor float32) int {
	return 0
}
