package gemm

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
