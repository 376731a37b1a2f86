//go:build !amd64 || noasm

package gemm

// vecAVX2 is false: there is no assembly here, and the row helpers never
// call the bodies below, which stand in for vec_amd64.s.
const vecAVX2 = false

func fmaRowAVX2(dst, a, b *float32, n int64)                                                {}
func axpyRowsAVX2(dst *float32, ldd int64, x *float32, ldx int64, a float32, n, rows int64) {}
func maxRowsAVX2(dst *float32, ldd int64, x *float32, ldx int64, n, rows int64)             {}

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
