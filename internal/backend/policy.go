// Package backend defines execution backends: named bundles of a
// kernel-selection policy plus runtime options. This is the seam the paper
// describes for integrating "different backends such as OpenCL kernels or
// third party libraries" — a backend only has to register kernels and a
// policy.
//
// Besides the native Orpheus backends, the package provides simulations of
// the comparator frameworks from the paper's evaluation (TVM, PyTorch,
// DarkNet, TF-Lite). Each emulates the characteristic algorithmic choices
// the paper credits for that framework's performance profile — spatial-pack
// convolution for TVM, explicit-unfold GEMM convolution, per-group im2col
// depthwise and per-call allocation and weight packing for PyTorch, direct
// convolution for DarkNet, mandatory multi-threading
// for TF-Lite. No artificial delays are injected anywhere: every
// performance difference comes from executing different real code.
//
// Kernel selection happens once, when runtime.Compile asks the backend's
// policy for each node's kernel at the planned shapes. The int8 tier
// enters it by one rule: the backend hands the plan's int8 flag to the
// policy it constructs, the fixed policies then take the first of
// quantizedKernels(n) when there is one, and the tuner times all of them
// against the fp32 candidates.
package backend

import (
	"fmt"
	"strings"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/runtime"
)

// quantizedKernels lists the registered quantized kernels able to run n,
// in registration order — none for ops without a quantized
// implementation and for nodes one cannot handle (non-constant weights,
// depthwise convolutions). They are numerically different
// implementations, not interchangeable fp32 ones, so a policy consults
// this only when the plan opted into int8.
func quantizedKernels(n *graph.Node) []ops.Kernel {
	var out []ops.Kernel
	for _, k := range ops.ForOp(n.Op) {
		if ops.IsQuantized(k) && k.Supports(n) {
			out = append(out, k)
		}
	}
	return out
}

// PreferencePolicy selects the first kernel in an ordered preference list
// that supports the node, falling back to the op's reference kernel.
type PreferencePolicy struct {
	// PolicyName identifies the policy in reports.
	PolicyName string
	// Prefs maps op type to kernel names in preference order.
	Prefs map[string][]string
	// int8 puts the quantized kernels ahead of Prefs.
	int8 bool
}

// Name implements runtime.Policy.
func (p *PreferencePolicy) Name() string { return p.PolicyName }

// Select implements runtime.Policy.
func (p *PreferencePolicy) Select(n *graph.Node) (ops.Kernel, error) {
	if p.int8 {
		if q := quantizedKernels(n); len(q) > 0 {
			return q[0], nil
		}
	}
	for _, name := range p.Prefs[n.Op] {
		k := ops.ByName(name)
		if k == nil {
			return nil, fmt.Errorf("backend %s: preference lists unknown kernel %q", p.PolicyName, name)
		}
		if k.Op() == n.Op && k.Supports(n) {
			return k, nil
		}
	}
	return runtime.ReferencePolicy{}.Select(n)
}

// HeuristicPolicy picks convolution kernels by layer geometry, the way the
// Orpheus paper describes its runtime choosing implementations per layer:
// dedicated depthwise path; spatial-pack for small GEMM-equivalent
// matrices where packing overhead dominates; packed-GEMM im2col otherwise.
type HeuristicPolicy struct {
	// int8 puts the quantized kernels ahead of the geometry rules.
	int8 bool
}

// DefaultSmallGemmThreshold is the M*N*K product below which spatial pack
// is preferred: the crossover point measured by the conv-sweep ablation
// (experiment A1) on the development machine.
const DefaultSmallGemmThreshold = 1 << 21 // ~2.1e6 MACs

// Name implements runtime.Policy.
func (p *HeuristicPolicy) Name() string { return "heuristic" }

// Select implements runtime.Policy.
func (p *HeuristicPolicy) Select(n *graph.Node) (ops.Kernel, error) {
	if p.int8 {
		if q := quantizedKernels(n); len(q) > 0 {
			return q[0], nil
		}
	}
	if n.Op != "Conv" {
		return (&PreferencePolicy{PolicyName: "heuristic", Prefs: nativePrefs}).Select(n)
	}
	// NHWC nodes (layout-converted plans) have their own kernel pair;
	// these reject NCHW nodes, so the checks cost nothing otherwise.
	if k := ops.ByName("conv.depthwise_nhwc"); k.Supports(n) {
		return k, nil
	}
	if k := ops.ByName("conv.im2col_nhwc"); k.Supports(n) {
		return k, nil
	}
	if k := ops.ByName("conv.depthwise"); k.Supports(n) {
		return k, nil
	}
	// flops = 2*M*N*K of the equivalent GEMM.
	if sp := ops.ByName("conv.spatialpack"); sp.Supports(n) && ops.NodeFlops(n) < 2*DefaultSmallGemmThreshold {
		return sp, nil
	}
	if k := ops.ByName("conv.im2col"); k.Supports(n) {
		return k, nil
	}
	return runtime.ReferencePolicy{}.Select(n)
}

// nativePrefs is the non-conv preference table shared by the Orpheus
// policies.
var nativePrefs = map[string][]string{
	"Dense": {"dense.gemm"},
}

// KernelSummary formats which kernel each op resolves to under a policy,
// for plan listings ("conv.im2col x12, conv.depthwise x13, ...").
func KernelSummary(steps []runtime.PlannedStep) string {
	counts := map[string]int{}
	var order []string
	for _, st := range steps {
		if counts[st.Kernel] == 0 {
			order = append(order, st.Kernel)
		}
		counts[st.Kernel]++
	}
	parts := make([]string, len(order))
	for i, k := range order {
		parts[i] = fmt.Sprintf("%s×%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}
