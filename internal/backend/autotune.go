package backend

import (
	"fmt"
	"sort"
	"time"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// AutoTunePolicy selects kernels empirically: for each distinct
// (op, attributes, input-shapes) signature it times every supporting
// kernel on synthetic data and caches the fastest. This is the
// profile-guided flavour of the paper's "multiple implementations selected
// at runtime" and the subject of ablation A5.
//
// Tuning happens inside runtime.Compile, at the node's planned (MaxBatch)
// shapes, and nowhere else: the winners are the plan's kernels at every
// runtime batch size, so no request ever waits for a measurement and one
// sample is answered by the same kernels whatever batch it rides in. With
// int8 the quantized kernels join the candidate pool and the tuner
// arbitrates fp32 vs int8 per layer on measured time.
type AutoTunePolicy struct {
	// Repeats per kernel measurement (after one warm-up); default 3.
	Repeats int

	// int8 admits quantizedKernels(n) as candidates; the winner is still
	// decided purely on measured time. False keeps plans bit-accurate fp32.
	int8 bool
	// cache maps signature → kernel name.
	cache map[string]string
}

// NewAutoTunePolicy returns an empty-cache tuner; int8 is the plan's
// quantized-tier flag.
func NewAutoTunePolicy(int8 bool) *AutoTunePolicy {
	return &AutoTunePolicy{int8: int8, cache: make(map[string]string)}
}

// Name implements runtime.Policy.
func (p *AutoTunePolicy) Name() string { return "autotune" }

// Select implements runtime.Policy, tuning at the node's planned shapes.
func (p *AutoTunePolicy) Select(n *graph.Node) (ops.Kernel, error) {
	sig := nodeSignature(n)
	if name, ok := p.cache[sig]; ok {
		return ops.ByName(name), nil
	}
	winner, err := p.tune(n, sig)
	if err != nil {
		return nil, err
	}
	p.cache[sig] = winner.Name()
	return winner, nil
}

// tune benchmarks every supporting kernel on synthetic tensors of the
// node's shapes (constants use their real tensors — quantized candidates
// need the actual weights).
func (p *AutoTunePolicy) tune(n *graph.Node, sig string) (ops.Kernel, error) {
	candidates := supportingKernels(n, p.int8)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("backend: no kernel supports node %q (%s)", n.Name, n.Op)
	}
	if len(candidates) == 1 {
		return candidates[0], nil
	}
	reps := p.Repeats
	if reps <= 0 {
		reps = 3
	}
	in := make([]*tensor.Tensor, len(n.Inputs))
	r := tensor.NewRNG(tensor.SeedFromString(sig))
	for i, v := range n.Inputs {
		if v.IsConst() {
			in[i] = v.Const
		} else {
			in[i] = tensor.Rand(r, -1, 1, v.Shape...)
		}
	}
	out := make([]*tensor.Tensor, len(n.Outputs))
	for i, v := range n.Outputs {
		out[i] = tensor.New(v.Shape...)
	}
	var best ops.Kernel
	var bestTime time.Duration
	for _, k := range candidates {
		ctx := ops.NewCtx(1)
		if err := k.Run(ctx, n, in, out); err != nil { // warm-up + correctness gate
			continue
		}
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			if err := k.Run(ctx, n, in, out); err != nil {
				break
			}
		}
		elapsed := time.Since(start) / time.Duration(reps)
		if best == nil || elapsed < bestTime {
			best, bestTime = k, elapsed
		}
	}
	if best == nil {
		return nil, fmt.Errorf("backend: every candidate kernel failed for node %q", n.Name)
	}
	return best, nil
}

// supportingKernels lists the tuner's candidates for n in stable name
// order: every fp32 kernel able to run it, plus the quantized ones when
// the plan opted into int8.
func supportingKernels(n *graph.Node, int8 bool) []ops.Kernel {
	var out []ops.Kernel
	for _, k := range ops.ForOp(n.Op) {
		if !ops.IsQuantized(k) && k.Supports(n) {
			out = append(out, k)
		}
	}
	if int8 {
		out = append(out, quantizedKernels(n)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// nodeSignature builds the tuning cache key at the node's planned shapes:
// op, attributes and input shapes (names excluded so identical layers
// share one entry).
func nodeSignature(n *graph.Node) string {
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sig := n.Op
	for _, k := range keys {
		sig += fmt.Sprintf("|%s=%v", k, n.Attrs[k])
	}
	for _, v := range n.Inputs {
		sig += "|" + tensor.ShapeString(v.Shape)
	}
	return sig
}

// interface checks
var _ runtime.Policy = (*AutoTunePolicy)(nil)
var _ runtime.Policy = (*PreferencePolicy)(nil)
var _ runtime.Policy = (*HeuristicPolicy)(nil)
