package gemm

import "math"

// axpyRowGo is the portable AXPYRow: the same walk as the assembly, one
// element at a time.
func axpyRowGo(dst []float32, ldd int, x []float32, ldx, stride int, a float32, n, rows int) {
	for r := 0; r < rows; r++ {
		d := dst[r*ldd:][:n]
		xr := x[r*ldx:]
		if stride == 1 {
			xr = xr[:n]
			for i := range d {
				d[i] += a * xr[i]
			}
			continue
		}
		for i := range d {
			d[i] += a * xr[i*stride]
		}
	}
}

// maxRowGo is the portable MaxRow. The comparison keeps dst unless x is
// greater, so NaNs in x are ignored and the first of two equal zeros wins,
// exactly as VMAXPS decides with dst as its second source.
func maxRowGo(dst []float32, ldd int, x []float32, ldx, stride, n, rows int) {
	for r := 0; r < rows; r++ {
		d := dst[r*ldd:][:n]
		xr := x[r*ldx:]
		for i := range d {
			if v := xr[i*stride]; v > d[i] {
				d[i] = v
			}
		}
	}
}

// gatherRowGo is the portable GatherRow.
func gatherRowGo(dst, x []float32, stride int) {
	if stride == 1 {
		copy(dst, x)
		return
	}
	for i := range dst {
		dst[i] = x[i*stride]
	}
}

// requantRow is the per-image requantize row of CallInt8.store:
//
//	dst[i] = float32(acc[i]-comp)*s + bias   through ReLU when relu is set
//
// acc must be at least as long as dst. requantRowHead takes the leading
// whole blocks of 8 where there is a vector body, and the loops here the
// rest with the same two roundings: the product is rounded before the add,
// never fused.
func requantRow(dst []float32, acc []int32, comp int32, s, bias float32, relu bool) {
	floor := float32(math.Inf(-1)) // max(−Inf, v) is v, −0 and NaN included
	if relu {
		floor = 0
	}
	n := requantRowHead(dst, acc, comp, s, bias, floor)
	acc = acc[n:len(dst)]
	dst = dst[n:]
	if relu {
		for i, a := range acc {
			dst[i] = activate(float32(a-comp)*s+bias, ActReLU, 0)
		}
		return
	}
	for i, a := range acc {
		dst[i] = float32(a-comp)*s + bias
	}
}
