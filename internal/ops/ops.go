// Package ops implements the Orpheus neural-network operator library.
//
// The package embodies the paper's central design idea: layers are first
// class citizens with multiple interchangeable implementations ("kernels")
// that are selected at runtime. Every operator registers one or more
// Kernels keyed by operator type; a backend policy (internal/backend) picks
// which kernel executes each node. Every operator also registers a shape
// inference function with internal/graph.
//
// Kernel naming follows "<op-family>.<algorithm>", e.g. "conv.im2col",
// "conv.spatialpack", "dense.gemm". The first kernel registered for an op
// is its correctness reference; the cross-kernel equivalence tests compare
// every other kernel against it.
package ops

import (
	"fmt"
	"sort"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Kernel is one concrete implementation of an operator.
type Kernel interface {
	// Name uniquely identifies the implementation, e.g. "conv.winograd".
	Name() string
	// Op is the operator type this kernel executes, e.g. "Conv".
	Op() string
	// Supports reports whether the kernel can execute this node (some
	// algorithms only handle a subset of attribute combinations).
	Supports(n *graph.Node) bool
	// Run executes the node. in and out are the node's input and output
	// tensors, pre-allocated with the inferred shapes. Out tensors are
	// zero-filled by the runtime unless the kernel declares that it fully
	// overwrites them (see KernelOverwrites).
	Run(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error
}

// Overwriter is optionally implemented by kernels that report whether they
// write every element of every output tensor before Run returns. The
// runtime skips the per-run arena zero-fill for such kernels; accumulating
// kernels (anything built on C += A·B, or Pad relying on a zeroed border)
// must not claim it.
type Overwriter interface {
	Overwrites(n *graph.Node) bool
}

// KernelOverwrites reports whether k fully overwrites its outputs when
// executing n. Kernels that do not implement Overwriter are conservatively
// assumed to need zero-filled outputs.
func KernelOverwrites(k Kernel, n *graph.Node) bool {
	if o, ok := k.(Overwriter); ok {
		return o.Overwrites(n)
	}
	return false
}

// Prepacker is implemented by kernels that read a node's constant weight
// (input 1) only through panels derived from it and kept in the Ctx's
// ConstCache. Prepack builds those panels from the weight's data; Run's
// cache-miss branch calls the same function, so a Run after Prepack never
// reads the weight's data and a compiled plan may release it. A plan that
// emulates per-call allocation (runtime NoBufferReuse) neither prepacks nor
// releases: each of its runs starts from an empty cache, so the miss
// branch packs again.
type Prepacker interface {
	Prepack(ctx *Ctx, n *graph.Node) error
}

// kernelFunc adapts plain functions to the Kernel interface.
type kernelFunc struct {
	name, op   string
	supports   func(n *graph.Node) bool
	overwrites bool
	run        func(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error
}

func (k *kernelFunc) Name() string { return k.name }
func (k *kernelFunc) Op() string   { return k.op }
func (k *kernelFunc) Supports(n *graph.Node) bool {
	if k.supports == nil {
		return true
	}
	return k.supports(n)
}
func (k *kernelFunc) Overwrites(n *graph.Node) bool { return k.overwrites }
func (k *kernelFunc) Run(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	return k.run(ctx, n, in, out)
}

// NewKernel builds a Kernel from functions. supports may be nil (always
// supported). The kernel is assumed to need zero-filled outputs; use
// NewOverwritingKernel when it writes every output element itself.
func NewKernel(name, op string,
	supports func(n *graph.Node) bool,
	run func(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error) Kernel {
	return &kernelFunc{name: name, op: op, supports: supports, run: run}
}

// NewOverwritingKernel is NewKernel for kernels that write every element of
// every output tensor, letting the runtime skip the arena zero-fill.
func NewOverwritingKernel(name, op string,
	supports func(n *graph.Node) bool,
	run func(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error) Kernel {
	return &kernelFunc{name: name, op: op, supports: supports, overwrites: true, run: run}
}

// prepackingKernel is an overwriting kernelFunc that implements Prepacker
// by handing prepack the node's weight data.
type prepackingKernel struct {
	kernelFunc
	prepack func(ctx *Ctx, n *graph.Node, w []float32) error
}

// Prepack implements Prepacker.
func (k *prepackingKernel) Prepack(ctx *Ctx, n *graph.Node) error {
	return k.prepack(ctx, n, n.Inputs[1].Const.Data())
}

// newPrepackingKernel is NewOverwritingKernel plus the Prepacker hook.
func newPrepackingKernel(name, op string,
	supports func(n *graph.Node) bool,
	prepack func(ctx *Ctx, n *graph.Node, w []float32) error,
	run func(ctx *Ctx, n *graph.Node, in, out []*tensor.Tensor) error) Kernel {
	return &prepackingKernel{kernelFunc{name: name, op: op, supports: supports, overwrites: true, run: run}, prepack}
}

var (
	kernelsByOp   = map[string][]Kernel{}
	kernelsByName = map[string]Kernel{}
	referenceFor  = map[string]Kernel{}
	refExplicit   = map[string]bool{}
	quantizedSet  = map[string]bool{}
)

// Register adds a kernel to the registry. Unless RegisterReference names
// another kernel explicitly, the first kernel registered for an op becomes
// that op's correctness reference. Duplicate kernel names panic (two
// implementations claiming one identity is a programming error).
func Register(k Kernel) {
	if _, dup := kernelsByName[k.Name()]; dup {
		panic(fmt.Sprintf("ops: duplicate kernel %q", k.Name()))
	}
	kernelsByName[k.Name()] = k
	kernelsByOp[k.Op()] = append(kernelsByOp[k.Op()], k)
	if _, ok := referenceFor[k.Op()]; !ok {
		referenceFor[k.Op()] = k
	}
}

// RegisterQuantized registers k and marks it as a reduced-precision
// implementation: numerically useful but not bit-comparable to the op's
// fp32 kernels. Backend policies skip quantized kernels unless the plan
// opted into them, and the cross-kernel equivalence tests compare them
// under a quantization tolerance rather than the fp32 one.
func RegisterQuantized(k Kernel) {
	Register(k)
	quantizedSet[k.Name()] = true
}

// IsQuantized reports whether k was registered as a reduced-precision
// kernel.
func IsQuantized(k Kernel) bool {
	return k != nil && quantizedSet[k.Name()]
}

// RegisterReference registers k and marks it as the op's correctness
// reference, regardless of file-init order. At most one kernel per op may
// do this.
func RegisterReference(k Kernel) {
	Register(k)
	if refExplicit[k.Op()] {
		panic(fmt.Sprintf("ops: op %q already has an explicit reference kernel", k.Op()))
	}
	refExplicit[k.Op()] = true
	referenceFor[k.Op()] = k
}

// ForOp returns the kernels registered for op, in registration order. The
// returned slice must not be modified.
func ForOp(op string) []Kernel { return kernelsByOp[op] }

// ByName returns the kernel with the given name, or nil.
func ByName(name string) Kernel { return kernelsByName[name] }

// Reference returns the correctness-reference kernel for op, or nil.
func Reference(op string) Kernel { return referenceFor[op] }

// Ops returns every operator type with at least one kernel, sorted.
func Ops() []string {
	out := make([]string, 0, len(kernelsByOp))
	for op := range kernelsByOp {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// KernelNames returns every registered kernel name, sorted.
func KernelNames() []string {
	out := make([]string, 0, len(kernelsByName))
	for name := range kernelsByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
