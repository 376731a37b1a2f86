package runtime

import (
	"fmt"

	"orpheus/internal/faultinject"
	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/tensor"
)

// Options configures plan compilation and execution.
type Options struct {
	// Policy selects kernels; nil means ReferencePolicy.
	Policy Policy
	// Workers is the goroutine budget handed to kernels (default 1, the
	// paper's single-core setting).
	Workers int
	// MaxBatch parameterises the plan by a maximum runtime batch size
	// (default 1). Compile rebatches the graph to MaxBatch, so arena slots
	// are sized for it; sessions then accept any batch 1 ≤ n ≤ MaxBatch per
	// Run, executing over views sliced to n.
	MaxBatch int
	// NoBufferReuse emulates frameworks that allocate per operator call
	// (torch-sim; ablation A3): every run binds a fresh private buffer to
	// each value, kernel scratch is allocated per call, and derived
	// weights (packed panels, transforms) are rebuilt per run in a cache
	// private to that run. Compile neither prepacks nor releases weights.
	NoBufferReuse bool
}

// step is one planned node execution. overwrites records, at compile time,
// whether the selected kernel writes every output element itself; only
// steps that do not are zero-filled before running.
type step struct {
	node       *graph.Node
	kernel     ops.Kernel
	overwrites bool
}

// Plan is a compiled execution plan: topologically ordered steps with
// kernels chosen, buffer slots assigned and the packed GEMM kernels'
// weight panels built. A Plan is immutable after Compile and may back any
// number of concurrent Sessions; they share its constant cache, so derived
// weights are computed once per plan, not once per session. The plan holds
// each weight once: a constant that only packing kernels read is kept as
// its panels alone (see Compile).
type Plan struct {
	g     *graph.Graph
	opts  Options
	steps []step

	// slotOf maps every intermediate (non-const, non-input) value to an
	// arena slot; slotSize is each slot's element capacity.
	slotOf   map[*graph.Value]int
	slotSize []int

	// consts caches run-invariant kernel precomputation, shared by every
	// session executing this plan.
	consts *ops.ConstCache

	// maxBatch is Options.MaxBatch (≥ 1); vmeta records, for every
	// non-const value, how its shape scales with the runtime batch. nil
	// when maxBatch == 1 (every value is static).
	maxBatch int
	vmeta    map[*graph.Value]batchMeta

	// arenaBytes is the planned arena footprint; noReuseBytes is what the
	// same graph needs without reuse (for the memory experiments).
	arenaBytes   int64
	noReuseBytes int64

	// fault is the fault-injection hook (see SetFault) every session built
	// afterwards consults at each plan-step boundary; nil disables it.
	fault *faultinject.Injector
}

// batchMeta describes how one value's shape scales with the runtime batch
// n: its shape is base with dimension dim multiplied by n. dim < 0 marks a
// static value (shape independent of batch).
type batchMeta struct {
	dim  int
	base []int
}

// shapeStatic reports whether the value does not scale with batch.
func (m batchMeta) static() bool { return m.dim < 0 }

// Compile plans execution of g: validates it, selects kernels, lays out
// the buffer arena and builds the derived weights of every kernel that
// implements ops.Prepacker. The graph must have been Finalize()d.
//
// Compile takes ownership of g: the plan mutates it. With Options.MaxBatch
// > 1 the graph is rebatched to MaxBatch before planning (so the arena
// holds the largest batch) and per-value batch scaling is recorded so
// sessions can slice bindings to any smaller batch. And every constant that
// only Prepacker kernels read, as the weight they pack, is released: its
// value keeps its shape but holds a tensor.ShapeOnly in place of the data,
// which no run reads again. NoBufferReuse plans pack per run and release
// nothing. A caller that reuses g after Compile must pass g.Clone()
// instead (backend.PrepareWith always does).
func Compile(g *graph.Graph, opts Options) (*Plan, error) {
	if opts.Policy == nil {
		opts.Policy = ReferencePolicy{}
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.MaxBatch < 1 {
		opts.MaxBatch = 1
	}
	if opts.MaxBatch > 1 {
		if err := g.Rebatch(opts.MaxBatch); err != nil {
			return nil, fmt.Errorf("runtime: rebatching to %d: %w", opts.MaxBatch, err)
		}
	}
	if err := g.TopoSort(); err != nil {
		return nil, err
	}
	p := &Plan{g: g, opts: opts, slotOf: make(map[*graph.Value]int), consts: ops.NewConstCache(), maxBatch: opts.MaxBatch}
	if opts.MaxBatch > 1 {
		if err := p.inferBatchMeta(); err != nil {
			return nil, err
		}
	}
	for _, n := range g.Nodes {
		k, err := opts.Policy.Select(n)
		if err != nil {
			return nil, fmt.Errorf("runtime: selecting kernel for %q (%s): %w", n.Name, n.Op, err)
		}
		if k.Op() != n.Op {
			return nil, fmt.Errorf("runtime: policy %q returned kernel %q (op %s) for op %s",
				opts.Policy.Name(), k.Name(), k.Op(), n.Op)
		}
		if !k.Supports(n) {
			return nil, fmt.Errorf("runtime: policy %q selected kernel %q which does not support node %q",
				opts.Policy.Name(), k.Name(), n.Name)
		}
		p.steps = append(p.steps, step{node: n, kernel: k, overwrites: ops.KernelOverwrites(k, n)})
	}
	p.planBuffers()
	if err := p.validateBindings(); err != nil {
		return nil, err
	}
	if !opts.NoBufferReuse {
		if err := p.prepack(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// prepack fills the constant cache for every step whose kernel is an
// ops.Prepacker, then releases each constant that such steps alone read,
// and only as their weight (input 1): the value's tensor becomes
// shape-only, so the plan no longer references the data.
func (p *Plan) prepack() error {
	ctx := ops.NewCtx(1)
	ctx.Consts = p.consts
	packedOnly := make(map[*graph.Value]bool)
	for _, st := range p.steps {
		pk, ok := st.kernel.(ops.Prepacker)
		ok = ok && st.node.Inputs[1].IsConst()
		if ok {
			if err := pk.Prepack(ctx, st.node); err != nil {
				return fmt.Errorf("runtime: prepacking %q (%s): %w", st.node.Name, st.kernel.Name(), err)
			}
		}
		for i, v := range st.node.Inputs {
			if v.IsConst() {
				prev, seen := packedOnly[v]
				packedOnly[v] = ok && i == 1 && (prev || !seen)
			}
		}
	}
	for _, o := range p.g.Outputs {
		delete(packedOnly, o)
	}
	for v, only := range packedOnly {
		if only {
			v.Const = tensor.ShapeOnly(v.Const.Shape()...)
		}
	}
	return nil
}

// inferBatchMeta derives how every non-const value's shape scales with the
// runtime batch by re-inferring a clone of the graph at batch 1 and diffing
// against the planned (MaxBatch) shapes. This keeps the batch dimension
// symbolic without teaching every shape rule about it explicitly: whatever
// a rule propagates is what the diff observes.
func (p *Plan) inferBatchMeta() error {
	c := p.g.Clone()
	if err := c.Rebatch(1); err != nil {
		return fmt.Errorf("runtime: inferring batch scaling: %w", err)
	}
	p.vmeta = make(map[*graph.Value]batchMeta)
	for _, name := range p.g.ValueNames() {
		v := p.g.Value(name)
		if v.IsConst() {
			continue
		}
		base := c.Value(name)
		if base == nil {
			return fmt.Errorf("runtime: value %q missing from batch-1 shape inference", name)
		}
		m, err := diffBatchShapes(name, base.Shape, v.Shape, p.maxBatch)
		if err != nil {
			return err
		}
		p.vmeta[v] = m
	}
	return nil
}

// diffBatchShapes classifies one value given its shape at batch 1 (base)
// and at MaxBatch (full). Supported scalings: static (shapes equal) or a
// single dimension multiplied by the batch with only size-1 dims before it,
// so a batch-n slice is a prefix of the full buffer.
func diffBatchShapes(name string, base, full []int, maxBatch int) (batchMeta, error) {
	if len(base) != len(full) {
		return batchMeta{}, fmt.Errorf("runtime: value %q changes rank with batch (%v vs %v)", name, base, full)
	}
	dim := -1
	for d := range base {
		if base[d] == full[d] {
			continue
		}
		if dim >= 0 {
			return batchMeta{}, fmt.Errorf("runtime: value %q scales with batch in more than one dimension (%v vs %v)", name, base, full)
		}
		if full[d] != maxBatch*base[d] {
			return batchMeta{}, fmt.Errorf("runtime: value %q does not scale linearly with batch (%v vs %v at max batch %d)", name, base, full, maxBatch)
		}
		dim = d
	}
	if dim < 0 {
		return batchMeta{dim: -1, base: base}, nil
	}
	for d := 0; d < dim; d++ {
		if base[d] != 1 {
			return batchMeta{}, fmt.Errorf("runtime: value %q has batch on non-leading dim %d of %v; prefix slicing unsupported", name, dim, full)
		}
	}
	return batchMeta{dim: dim, base: base}, nil
}

// metaFor returns the batch scaling of v; plans compiled at MaxBatch 1
// (and constants) report every value as static.
func (p *Plan) metaFor(v *graph.Value) batchMeta {
	if p.vmeta != nil {
		if m, ok := p.vmeta[v]; ok {
			return m
		}
	}
	return batchMeta{dim: -1, base: v.Shape}
}

// batchShape returns v's shape at batch n as a fresh slice.
func (p *Plan) batchShape(v *graph.Value, n int) []int {
	m := p.metaFor(v)
	shape := append([]int(nil), m.base...)
	if m.dim >= 0 {
		shape[m.dim] *= n
	}
	return shape
}

// batchVolume returns v's element count at batch n.
func (p *Plan) batchVolume(v *graph.Value, n int) int {
	m := p.metaFor(v)
	vol := tensor.Volume(m.base)
	if m.dim >= 0 {
		vol *= n
	}
	return vol
}

// MaxBatch returns the largest runtime batch the plan's sessions accept.
func (p *Plan) MaxBatch() int { return p.maxBatch }

// ConstBytes returns the current footprint of the plan's derived-constant
// cache: prepacked GEMM weight panels (fp32 or int8), Winograd transforms
// and the like. Compile builds every packed GEMM panel, so for plans on
// the packed kernels the figure is final when Compile returns; kernels
// that are not Prepackers (Winograd, the NHWC tier, the explicit im2col)
// add their entries on their first run. NoBufferReuse plans keep the
// cache empty: their derived weights live in a per-run cache.
func (p *Plan) ConstBytes() int64 { return p.consts.Bytes() }

// ConstStores returns how many entries have been stored in the plan's
// constant cache. Compile stores each packed panel once; a figure that
// grows while sessions run means a kernel packed at run time.
func (p *Plan) ConstStores() int64 { return p.consts.Stores() }

// SetFault installs (or clears) the plan's fault-injection hook (see
// internal/faultinject), consulted at every plan-step boundary; nil — the
// default — costs one pointer comparison per step. Call it before the
// plan's sessions start running: sessions created earlier keep the hook
// they were built with.
func (p *Plan) SetFault(fi *faultinject.Injector) { p.fault = fi }

// InputShapeAt returns the shape of graph input i at batch n (for
// MaxBatch-1 plans this is simply the input's planned shape).
func (p *Plan) InputShapeAt(i, n int) []int { return p.batchShape(p.g.Inputs[i], n) }

// validateBindings checks, once at compile time, that every value a step
// reads (and every graph output) is a constant, a graph input, or a
// planned intermediate. Sessions rely on this to prebind all step tensors
// without per-run existence checks.
func (p *Plan) validateBindings() error {
	isInput := func(v *graph.Value) bool {
		for _, in := range p.g.Inputs {
			if in == v {
				return true
			}
		}
		return false
	}
	resolvable := func(v *graph.Value) bool {
		if v.IsConst() || isInput(v) {
			return true
		}
		_, ok := p.slotOf[v]
		return ok
	}
	for _, st := range p.steps {
		for _, in := range st.node.Inputs {
			if !resolvable(in) {
				return fmt.Errorf("runtime: node %q reads value %q which is never produced", st.node.Name, in.Name)
			}
		}
	}
	for _, o := range p.g.Outputs {
		if !resolvable(o) {
			return fmt.Errorf("runtime: graph output %q is never produced", o.Name)
		}
	}
	return nil
}

// planBuffers assigns arena slots to intermediate values using a greedy
// best-fit allocator over value live ranges.
func (p *Plan) planBuffers() {
	lastUse := make(map[*graph.Value]int)
	for i, st := range p.steps {
		for _, in := range st.node.Inputs {
			lastUse[in] = i
		}
	}
	// Graph outputs live to the end.
	for _, out := range p.g.Outputs {
		lastUse[out] = len(p.steps)
	}

	type freeSlot struct{ id, size int }
	var free []freeSlot
	takeSlot := func(size int) int {
		// Best fit: smallest free slot that holds size; grow the smallest
		// slot otherwise (keeps slot count minimal).
		best := -1
		for i, f := range free {
			if f.size >= size && (best < 0 || f.size < free[best].size) {
				best = i
			}
		}
		if best >= 0 {
			id := free[best].id
			free = append(free[:best], free[best+1:]...)
			return id
		}
		p.slotSize = append(p.slotSize, size)
		return len(p.slotSize) - 1
	}

	for i, st := range p.steps {
		for _, out := range st.node.Outputs {
			size := tensor.Volume(out.Shape)
			p.noReuseBytes += int64(size) * 4
			id := takeSlot(size)
			if p.slotSize[id] < size {
				p.slotSize[id] = size
			}
			p.slotOf[out] = id
		}
		// Release slots whose values die at this step.
		for _, in := range st.node.Inputs {
			if lastUse[in] != i {
				continue
			}
			if id, ok := p.slotOf[in]; ok {
				free = append(free, freeSlot{id: id, size: p.slotSize[id]})
			}
		}
	}
	for _, size := range p.slotSize {
		p.arenaBytes += int64(size) * 4
	}
}

// ArenaBytes returns the planned intermediate-buffer footprint with reuse.
func (p *Plan) ArenaBytes() int64 { return p.arenaBytes }

// NoReuseBytes returns the footprint the graph would need if every
// intermediate value had a private buffer.
func (p *Plan) NoReuseBytes() int64 { return p.noReuseBytes }

// WeightBytes returns the footprint of the constant data the plan still
// holds: every constant a kernel reads raw (biases, depthwise and
// reference-kernel weights). Weights released after packing count in
// ConstBytes instead, as their panels.
func (p *Plan) WeightBytes() int64 { return p.g.NumParams() * 4 }

// Steps returns the planned (node, kernel-name) sequence for reporting.
func (p *Plan) Steps() []PlannedStep {
	out := make([]PlannedStep, len(p.steps))
	for i, st := range p.steps {
		out[i] = PlannedStep{Node: st.node, Kernel: st.kernel.Name()}
	}
	return out
}

// PlannedStep describes one entry of the execution plan.
type PlannedStep struct {
	Node   *graph.Node
	Kernel string
}
