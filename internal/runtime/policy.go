// Package runtime executes Orpheus graphs: Compile asks a Policy for one
// kernel per node, plans buffer reuse from value liveness, and sessions
// run the plan with optional per-layer profiling. Compile is the only
// place a kernel is chosen: whatever the policy decides there — at the
// planned (MaxBatch) shapes — is what every session executes at every
// runtime batch size, so Plan.Steps is the executed kernel list and no
// request ever pays for a selection or a measurement.
package runtime

import (
	"fmt"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
)

// Policy chooses which registered kernel executes a node. Backends
// (internal/backend) supply policies that emulate different frameworks'
// algorithm choices, and decide there whether the quantized kernels are
// eligible; the default policy picks each op's reference kernel.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Select returns the kernel to run for n. Compile calls it once per
	// node, after rebatching, so n carries its planned shapes.
	Select(n *graph.Node) (ops.Kernel, error)
}

// ReferencePolicy selects every op's reference kernel (the simplest
// correct implementation). It is the fallback when no backend is given.
type ReferencePolicy struct{}

// Name implements Policy.
func (ReferencePolicy) Name() string { return "reference" }

// Select implements Policy.
func (ReferencePolicy) Select(n *graph.Node) (ops.Kernel, error) {
	k := ops.Reference(n.Op)
	if k == nil {
		return nil, fmt.Errorf("runtime: no kernel registered for op %q", n.Op)
	}
	if !k.Supports(n) {
		return nil, fmt.Errorf("runtime: reference kernel %q does not support node %q", k.Name(), n.Name)
	}
	return k, nil
}
