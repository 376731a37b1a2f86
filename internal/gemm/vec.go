package gemm

import (
	"fmt"
	"math"
	"math/bits"
)

// FMARow computes dst[i] += a[i]*b[i] for i in [0, len(dst)). a and b must
// be at least as long as dst. Whole blocks of 8 take an AVX2/FMA body
// where there is one.
func FMARow(dst, a, b []float32) {
	n := len(dst)
	if vecAVX2 && n >= 8 {
		q := n &^ 7
		fmaRowAVX2(&dst[0], &a[0], &b[0], int64(q))
		dst, a, b = dst[q:n], a[q:n], b[q:n]
	}
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// AXPYRow is one scalar times a run of an input row, added to a run of an
// output row, applied to rows consecutive rows in one call:
//
//	dst[r*ldd+i] += a * x[r*ldx+i]   r in [0, rows), i in [0, n)
//
// dst and x must reach the last element that touches. It takes an
// AVX2/FMA body where there is one.
func AXPYRow(dst []float32, ldd int, x []float32, ldx int, a float32, n, rows int) {
	if n <= 0 || rows <= 0 {
		return
	}
	_ = dst[(rows-1)*ldd+n-1]
	_ = x[(rows-1)*ldx+n-1]
	if vecAVX2 {
		axpyRowsAVX2(&dst[0], int64(ldd), &x[0], int64(ldx), a, int64(n), int64(rows))
		return
	}
	for r := 0; r < rows; r++ {
		d, xr := dst[r*ldd:][:n], x[r*ldx:][:n]
		for i := range d {
			d[i] += a * xr[i]
		}
	}
}

// MaxRow is a run of an input row folded into a run of an output row with
// max, applied to rows consecutive rows in one call:
//
//	dst[r*ldd+i] = max(dst[r*ldd+i], x[r*ldx+i])   r in [0, rows), i in [0, n)
//
// dst keeps its value unless x is greater. dst and x must reach the last
// element that touches. It takes an AVX2 body where there is one.
func MaxRow(dst []float32, ldd int, x []float32, ldx, n, rows int) {
	if n <= 0 || rows <= 0 {
		return
	}
	_ = dst[(rows-1)*ldd+n-1]
	_ = x[(rows-1)*ldx+n-1]
	if vecAVX2 {
		maxRowsAVX2(&dst[0], int64(ldd), &x[0], int64(ldx), int64(n), int64(rows))
		return
	}
	maxRowGo(dst, ldd, x, ldx, n, rows)
}

// maxRowGo is the portable MaxRow, one maxRun per row.
func maxRowGo(dst []float32, ldd int, x []float32, ldx, n, rows int) {
	for r := 0; r < rows; r++ {
		maxRun(dst[r*ldd:][:n], x[r*ldx:], 1)
	}
}

// The GatherTaps and DepthwiseRow bodies, in the order a host may run
// them: each host runs vecBody, and every body below it is also present
// for the tests.
const (
	bodyGo = iota
	bodyAVX2
	bodyAVX512
)

// GatherTaps is the row primitive of the implicit-GEMM convolution gather:
// for every k-row i of a panel it stores n elements of x, stride apart
// from tap[i], to row i of dst:
//
//	dst[i*ldd+j] = x[tap[i] + j*stride]   i in [0, len(tap)), j in [0, n)
//
// tap must be non-decreasing, as a panel's tap table is by construction;
// GatherTaps then proves every read and write in bounds from the first and
// last tap alone, once per call, and panics when one is not. Elements are
// moved, never computed on, so every bit pattern — signalling NaNs
// included — arrives unchanged.
func GatherTaps(dst []float32, ldd int, x []float32, tap []int, n, stride int) {
	if n <= 0 || len(tap) == 0 {
		return
	}
	first, last := tap[0], tap[len(tap)-1]
	reach, readOK := span(n-1, stride)
	rowEnd, writeOK := span(len(tap)-1, ldd)
	if stride < 1 || first < 0 || last < first || !readOK || reach >= len(x)-last {
		panic(fmt.Sprintf("gemm: GatherTaps reads taps [%d, %d] + %d×%d of %d elements", first, last, n-1, stride, len(x)))
	}
	if !writeOK || rowEnd > len(dst)-n {
		panic(fmt.Sprintf("gemm: GatherTaps writes %d rows of %d at %d apart into %d elements", len(tap), n, ldd, len(dst)))
	}
	gatherTaps(vecBody, dst, ldd, x, tap, n, stride)
}

// span returns count*step, and whether both are non-negative and the
// product fits in an int.
func span(count, step int) (int, bool) {
	hi, lo := bits.Mul64(uint64(count), uint64(step))
	return int(lo), count >= 0 && step >= 0 && hi == 0 && lo <= math.MaxInt
}

// gatherTapsGo is the portable GatherTaps body and the oracle of the
// assembly ones: one copy, or one strided loop, per k-row.
func gatherTapsGo(dst []float32, ldd int, x []float32, tap []int, n, stride int) {
	for i, t := range tap {
		d := dst[i*ldd:][:n]
		if stride == 1 {
			copy(d, x[t:])
			continue
		}
		for j := range d {
			d[j] = x[t+j*stride]
		}
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
