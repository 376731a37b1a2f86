package gemm

import "math"

// Virtual B operands and fused epilogues for the packed tier.
//
// A PackSrc lets a Call describe its B operand *implicitly*: instead of
// reading a materialised row-major matrix, the packed tier asks the source
// to write each kc×nc panel directly into pack strips. Convolution uses
// this to pack straight from the NCHW input image ("implicit GEMM"),
// skipping the kdim×cols im2col scratch matrix and the extra read/write
// sweep over it.
//
// The epilogue fields of Call (BiasRow, BiasCol, Act, Alpha) fuse the
// bias-add and elementwise activation into the store of a unit: each row
// of the unit accumulator goes to C through them in one pass, while the
// unit is still cache-resident, instead of as separate full-tensor sweeps
// after the GEMM returns. (Micro-tile granularity was measured slower: a
// call per 8×8 tile costs more in call/branch overhead than the cache win
// returns; one pass per unit row amortises it.)

// PackSrc supplies a virtual B operand panel by panel. Implementations
// must be safe for concurrent PackPanel calls: the worker pool packs
// panels of one Call from several goroutines at once, and the source is
// treated as read-only for the duration of the Call.
type PackSrc interface {
	// PackPanel writes the packed form of the kc×nc panel of image img's
	// B matrix starting at row pp, column jj into dst, using the layout
	// packB produces: strips of nr columns, row-major within each strip,
	// strip s spanning columns [s*nr, s*nr+nr). Columns beyond nc must be
	// zero-padded so edge strips are full. dst holds at least
	// roundUp(nc, nr)*kc values.
	PackPanel(dst []float32, img, pp, jj, kc, nc, nr int)
}

// ClearEdgeCols zero-pads a packed panel of rows-row strips nr columns
// wide: it clears the columns beyond nc of the last strip, which PackSrc
// requires and every panel packer leaves to this one call. The padding is
// geometric; the kernels without an exact-width edge multiply it and
// discard the products.
func ClearEdgeCols(dst []float32, rows, nr, nc int) {
	if jl := nc % nr; jl != 0 {
		last := dst[(nc/nr)*rows*nr:]
		for p := 0; p < rows; p++ {
			clear(last[p*nr+jl : (p+1)*nr])
		}
	}
}

// PackSrcA supplies a virtual A operand panel by panel — the A-side mirror
// of PackSrc. NHWC implicit-GEMM convolution gathers per-image receptive
// fields this way while the constant weights ride as a prepacked, shared B
// operand. Implementations must be safe for concurrent PackPanelA calls.
type PackSrcA interface {
	// PackPanelA writes the packed form of the mc×kc panel of image img's
	// A matrix starting at row ii, column pp into dst, using the layout
	// packA produces: strips of mr rows, column-major within each strip,
	// strip s spanning rows [s*mr, s*mr+mr). Rows beyond mc must be
	// zero-padded so edge strips are full. dst holds at least
	// roundUp(mc, mr)*kc values.
	PackPanelA(dst []float32, img, ii, pp, mc, kc, mr int)
}

// Activation selects the elementwise activation a Call's epilogue applies
// after the bias add.
type Activation uint8

// Epilogue activations. ActLeakyReLU multiplies negative values by
// Call.Alpha.
const (
	ActNone Activation = iota
	ActReLU
	ActReLU6
	ActLeakyReLU
)

// store implements operands: rows×nc of the unit accumulator acc (row
// stride ldc) go to image img's C at (i0, jj) — added to C first when the
// call accumulates — with the bias add and the activation fused into the
// same pass. Bias vectors index by absolute row and column.
func (c *Call) store(acc []float32, ldc, img, i0, jj, rows, nc int) {
	cc, ldC := c.C[img*c.StrideC:], c.ldc()
	var bcol []float32
	if c.BiasCol != nil {
		bcol = c.BiasCol[jj : jj+nc]
	}
	for r := 0; r < rows; r++ {
		dst, src := cc[(i0+r)*ldC+jj:][:nc], acc[r*ldc:][:nc]
		if !c.Store {
			for i, v := range src {
				dst[i] += v
			}
			src = dst
		}
		var bv float32
		if c.BiasRow != nil {
			bv = c.BiasRow[i0+r]
		}
		switch {
		case bcol != nil:
			for i, v := range src {
				dst[i] = v + (bv + bcol[i])
			}
			if c.Act != ActNone {
				ActivateRow(dst, dst, c.Act, c.Alpha)
			}
		case c.Act != ActNone || bv != 0:
			biasActivateRow(dst, src, bv, c.Act, c.Alpha)
		default:
			copy(dst, src)
		}
	}
}

// negZero is the bias that changes nothing: x + (−0) is x for every x,
// −0 and NaN included, so "no bias" needs no loops of its own.
var negZero = math.Float32frombits(1 << 31)

// ActivateRow stores act(src[i]) to dst[i] for i in [0, len(dst)); dst and
// src may be the same slice, and src must be at least as long as dst. It
// is the one definition of the elementwise activations: the GEMM
// epilogues, the standalone activation kernels and the depthwise row
// finish all land here. ActNone copies.
func ActivateRow(dst, src []float32, act Activation, alpha float32) {
	biasActivateRow(dst, src, negZero, act, alpha)
}

// biasActivateRow stores act(src[i]+bias) to dst[i]. The mode switch sits
// outside the element loops, and each loop body is activate with a
// constant mode — a select on the value's bits the compiler turns into a
// conditional move, where a branch on the sign of a pre-activation
// mispredicts every other element.
func biasActivateRow(dst, src []float32, bias float32, act Activation, alpha float32) {
	src = src[:len(dst)]
	switch act {
	case ActNone:
		for i, v := range src {
			dst[i] = v + bias
		}
	case ActReLU:
		n := reluRowHead(dst, src, bias)
		dst, src = dst[n:], src[n:]
		for i, v := range src {
			dst[i] = activate(v+bias, ActReLU, 0)
		}
	case ActReLU6:
		for i, v := range src {
			dst[i] = activate(v+bias, ActReLU6, 0)
		}
	case ActLeakyReLU:
		for i, v := range src {
			dst[i] = activate(v+bias, ActLeakyReLU, alpha)
		}
	}
}
