// Package tensor provides the dense float32 tensor type used throughout
// Orpheus. Tensors are always contiguous and row-major; convolutional data
// uses the NCHW layout (batch, channels, height, width).
//
// The package is deliberately small: it supplies construction, indexing,
// shape manipulation, elementwise math, simple reductions and the data
// rearrangements (padding, transposition, im2col) that the operator kernels
// in internal/ops are built from.
//
// Constructors panic on structurally invalid arguments (negative dimensions,
// mismatched data lengths); these are programmer errors, analogous to
// make([]T, -1). All model-level validation in Orpheus happens at graph
// construction time, before any tensor code runs.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// A Tensor with an empty shape is a scalar holding exactly one element.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: cloneInts(shape), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied), so the caller must not alias it unexpectedly.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{shape: cloneInts(shape), data: data}
}

// ShapeOnly returns a tensor that carries a shape but no data: Size is 0
// and Data is nil. A compiled plan binds one in place of a constant whose
// data it released after deriving packed panels from it.
func ShapeOnly(shape ...int) *Tensor {
	checkShape(shape)
	return &Tensor{shape: cloneInts(shape)}
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Scalar returns a 0-dimensional tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{shape: nil, data: []float32{v}}
}

// checkShape validates dims and returns the volume.
func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	if len(s) == 0 {
		return nil
	}
	c := make([]int, len(s))
	copy(c, s)
	return c
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified by the caller.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i. Negative i counts from the end,
// so Dim(-1) is the innermost dimension.
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// Size returns the total number of elements held (0 for a ShapeOnly
// tensor).
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates
// the tensor; kernels rely on this for zero-copy access.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

// offset converts a multi-dimensional index to a flat offset.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: cloneInts(t.shape), data: d}
}

// Reshape returns a view of the same data with a new shape. Exactly one
// dimension may be -1, in which case it is inferred. It panics if the
// volumes disagree.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := cloneInts(shape)
	infer := -1
	n := 1
	for i, d := range out {
		switch {
		case d == -1:
			if infer >= 0 {
				panic(fmt.Sprintf("tensor: Reshape with multiple -1 dims in %v", shape))
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		default:
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer -1 in reshape %v from volume %d", shape, len(t.data)))
		}
		out[infer] = len(t.data) / n
		n *= out[infer]
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v volume %d does not match tensor volume %d", shape, n, len(t.data)))
	}
	return &Tensor{shape: out, data: t.data}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// String renders a short human-readable description (shape and a few
// leading values), suitable for logs and error messages.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if show < n {
		fmt.Fprintf(&b, " … +%d", n-show)
	}
	b.WriteString("]")
	return b.String()
}

// Volume returns the product of the dimensions in shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ShapeString formats a shape like "1x64x56x56".
func ShapeString(shape []int) string {
	if len(shape) == 0 {
		return "scalar"
	}
	parts := make([]string, len(shape))
	for i, d := range shape {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}
