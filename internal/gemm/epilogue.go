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
// bias-add and elementwise activation into the GEMM instead of separate
// full-tensor sweeps after it returns. A finishing kernel (the fp32 Go,
// AVX2 and AVX-512 ones) applies them in registers on a unit's last
// k-panel, inside the tile and edge bodies, and writes each element of C
// once (epi). Micro-tile granularity from Go was measured slower — a call
// per 8×8 tile cost more in call/branch overhead than the cache win
// returned — which is why the finish lives in the kernel body, not in a
// Go call per tile. The other kernels, and the calls a finishing body does
// not cover (see Call.epilogue), go through Call.store: one pass per row of
// the unit accumulator, while the unit is still cache-resident.

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

// epi is the epilogue a finishing body applies to each element it
// completes on a unit's last k-panel, in the order Call.store applies the
// call's: the sum x of the element at row r, column j (added to C first
// when the panel accumulates) becomes
//
//	col:       x = (+0 + col[j]) + x
//	row:       x = x + b, b = row[r], a +0 b taken as −0
//	row, relu: x = max(+0, b + x)
//	relu:      x = max(+0, +0 + x)
//
// where the max passes −0 and NaN through. The operand order of each add
// is store's — its column-bias and ReLU vector rows put the bias first,
// its plain bias row the sum — so when both operands are NaN the same
// payload survives. +0 + col[j] is store's bv + bcol[j] with no row bias,
// a −0 for a +0 row bias its plain copy when the bias is zero, and the +0
// before a bare ReLU its zero bias. row and col never come together. A
// nil *epi finishes nothing: the body stores or adds its sums as they
// are.
type epi struct {
	row, col []float32
	relu     bool
}

// zeroRows is the row bias of a ReLU without one, which store adds as +0:
// as many rows as an M-tile has, the most any body reads.
var zeroRows [mcBlock]float32

// at returns e's bias pointers for a block whose first element is row r,
// column j — nil for no bias — and its activation flag, as the assembly
// bodies take them. A nil e gives none.
func (e *epi) at(r, j int) (row, col *float32, relu bool) {
	switch {
	case e == nil:
		return nil, nil, false
	case e.col != nil:
		col = &e.col[j]
	case e.row != nil:
		row = &e.row[r]
	case e.relu:
		row = &zeroRows[0]
	}
	return row, col, e.relu
}

// apply finishes x, the sum of the element at row r, column j. The Go
// bodies call it; their operand order on each add is the compiler's.
func (e *epi) apply(x float32, r, j int) float32 {
	if e == nil {
		return x
	}
	var zero float32
	switch {
	case e.col != nil:
		x = (zero + e.col[j]) + x
	case e.relu && e.row != nil:
		x = e.row[r] + x
	case e.row != nil:
		b := e.row[r]
		if b == 0 {
			b = negZero
		}
		x = x + b
	case e.relu:
		x = zero + x
	}
	if e.relu {
		x = activate(x, ActReLU, 0)
	}
	return x
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
