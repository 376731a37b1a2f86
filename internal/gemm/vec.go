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
