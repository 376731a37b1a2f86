package runtime

import (
	"context"
	"fmt"
	"time"

	"orpheus/internal/faultinject"
	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/tensor"
)

// Session executes a compiled Plan. It owns the buffer arena and the
// kernel context (scratch pools, GEMM packing buffers), and shares the
// plan's constant cache with every other session of the same plan.
//
// Binding resolution happens per batch size, not per run: the first Run at
// batch n resolves every step's input and output tensors to constant
// tensors or arena views sliced to n (arena slots are sized for the plan's
// MaxBatch), and the binding is kept for the session's lifetime. The
// steady-state Run loop at any batch size is therefore a straight walk
// over prebound steps with zero heap allocations; output regions are
// zero-filled per run only for kernels that do not overwrite them.
//
// A NoBufferReuse plan runs the same loop over a binding built afresh for
// every run: fresh buffers for every value, and a fresh constant cache, so
// each kernel's cache miss rebuilds its derived weights per call.
//
// A Session is not safe for concurrent use; create one per goroutine or
// use a SessionPool.
type Session struct {
	plan  *Plan
	ctx   *ops.Ctx
	fault *faultinject.Injector // the plan's hook when the session was built

	// slots are the arena buffers, sized for MaxBatch (nil under
	// NoBufferReuse, whose runs bind fresh buffers instead).
	slots [][]float32

	// inPatches is structural (step, arg) → input wiring, identical for
	// every batch size; inTensors carries the caller's tensors of the
	// current run; inputIdx maps graph-input values to their position.
	inPatches []inputPatch
	inTensors []*tensor.Tensor
	inputIdx  map[*graph.Value]int

	// binds[n] holds the prebound steps for batch n (1 ≤ n ≤ MaxBatch),
	// built lazily on the first run at that batch size; never kept under
	// NoBufferReuse.
	binds []*batchBind

	// stage backs the Staging views (stageViews[n] is the batch-n one):
	// one buffer of MaxBatch samples, allocated on first use outside the
	// planned arena. one is RunOne's single-entry binding map.
	stage      []float32
	stageViews []*tensor.Tensor
	one        map[string]*tensor.Tensor

	// poisoned is set when a plan step panics on this session: the arena,
	// scratch and GEMM packing state may be mid-write garbage, so the
	// session must not serve another request. SessionPool.Put quarantines
	// poisoned sessions instead of recycling them.
	poisoned bool
}

// batchBind is the prebound execution state for one batch size.
type batchBind struct {
	steps    []boundStep
	outBinds []outputBind
	// results is reused across runs at this batch size; see Run.
	results map[string]*tensor.Tensor
}

// boundStep is one prebound node execution.
type boundStep struct {
	node   *graph.Node
	kernel ops.Kernel
	in     []*tensor.Tensor
	out    []*tensor.Tensor
	// zero lists the arena regions to clear before the kernel runs; empty
	// for kernels that overwrite every output element.
	zero [][]float32
}

// inputPatch rebinds one kernel argument to a caller-provided input tensor
// at the start of every Run.
type inputPatch struct{ step, arg, input int }

// outputBind resolves one graph output: a prebound tensor, or (when
// input >= 0) a passthrough of a caller-provided input.
type outputBind struct {
	name  string
	t     *tensor.Tensor
	input int
}

// NewSession prepares an executable session from a plan, allocating the
// arena (sized for the plan's MaxBatch) and resolving the full-batch step
// bindings up front; a NoBufferReuse plan gets neither.
func NewSession(plan *Plan) *Session {
	s := &Session{plan: plan, ctx: ops.NewCtx(plan.opts.Workers), fault: plan.fault}
	s.ctx.DisableScratchReuse = plan.opts.NoBufferReuse
	s.ctx.Consts = plan.consts
	s.inTensors = make([]*tensor.Tensor, len(plan.g.Inputs))
	s.inputIdx = make(map[*graph.Value]int, len(plan.g.Inputs))
	for i, in := range plan.g.Inputs {
		s.inputIdx[in] = i
	}
	for si, st := range plan.steps {
		for ai, v := range st.node.Inputs {
			if v.IsConst() {
				continue
			}
			if idx, ok := s.inputIdx[v]; ok {
				s.inPatches = append(s.inPatches, inputPatch{step: si, arg: ai, input: idx})
			}
		}
	}
	s.binds = make([]*batchBind, plan.maxBatch+1)
	if plan.opts.NoBufferReuse {
		return s
	}
	s.slots = make([][]float32, len(plan.slotSize))
	for i, size := range plan.slotSize {
		s.slots[i] = make([]float32, size)
	}
	s.binds[plan.maxBatch] = s.bindFor(plan.maxBatch)
	return s
}

// bindFor precomputes the per-step tensor bindings for batch n: pure
// view construction over the plan's compile-time kernels. Arena views
// are created once per value; values sharing a slot get distinct views
// over the same storage, exactly as the liveness planner intends.
// Batch-scaled values get views over the leading n/MaxBatch fraction of
// their slot. Under NoBufferReuse every value gets a fresh zeroed buffer
// of its batch-n shape instead, so nothing needs zero-filling.
func (s *Session) bindFor(n int) *batchBind {
	fresh := s.plan.opts.NoBufferReuse
	views := make(map[*graph.Value]*tensor.Tensor)
	view := func(v *graph.Value) *tensor.Tensor {
		if t := views[v]; t != nil {
			return t
		}
		var t *tensor.Tensor
		if fresh {
			t = tensor.New(s.plan.batchShape(v, n)...)
		} else {
			t = tensor.FromSlice(s.slots[s.plan.slotOf[v]][:s.plan.batchVolume(v, n)], s.plan.batchShape(v, n)...)
		}
		views[v] = t
		return t
	}
	b := &batchBind{steps: make([]boundStep, len(s.plan.steps))}
	for si, st := range s.plan.steps {
		bs := &b.steps[si]
		bs.node, bs.kernel = st.node, st.kernel
		bs.in = make([]*tensor.Tensor, len(st.node.Inputs))
		for ai, v := range st.node.Inputs {
			switch {
			case v.IsConst():
				bs.in[ai] = v.Const
			default:
				if _, ok := s.inputIdx[v]; ok {
					// Patched per run from the caller's tensors.
					continue
				}
				bs.in[ai] = view(v)
			}
		}
		bs.out = make([]*tensor.Tensor, len(st.node.Outputs))
		for oi, v := range st.node.Outputs {
			t := view(v)
			bs.out[oi] = t
			if !st.overwrites && !fresh {
				bs.zero = append(bs.zero, t.Data())
			}
		}
	}
	b.outBinds = make([]outputBind, 0, len(s.plan.g.Outputs))
	for _, o := range s.plan.g.Outputs {
		ob := outputBind{name: o.Name, input: -1}
		switch {
		case o.IsConst():
			ob.t = o.Const
		default:
			if idx, ok := s.inputIdx[o]; ok {
				ob.input = idx
			} else {
				ob.t = view(o)
			}
		}
		b.outBinds = append(b.outBinds, ob)
	}
	b.results = make(map[string]*tensor.Tensor, len(b.outBinds))
	return b
}

// resolveBatch validates the caller's inputs, fills s.inTensors and
// returns the runtime batch size n. Batched inputs must agree on n and
// stay within the plan's MaxBatch; static inputs must match their planned
// shape exactly. The checks are comparison-only so the hot path does not
// allocate.
func (s *Session) resolveBatch(inputs map[string]*tensor.Tensor) (int, error) {
	n := 0
	for i, in := range s.plan.g.Inputs {
		t, ok := inputs[in.Name]
		if !ok {
			return 0, fmt.Errorf("runtime: missing input %q: %w", in.Name, ErrUnknownInput)
		}
		m := s.plan.metaFor(in)
		if m.static() {
			if !tensor.ShapeEq(t.Shape(), in.Shape) {
				return 0, fmt.Errorf("runtime: input %q has shape %v, want %v: %w", in.Name, t.Shape(), in.Shape, ErrShapeMismatch)
			}
			s.inTensors[i] = t
			continue
		}
		got := t.Shape()
		if len(got) != len(m.base) || got[m.dim]%m.base[m.dim] != 0 {
			return 0, fmt.Errorf("runtime: input %q has shape %v, want %v with a batched dim %d: %w", in.Name, got, m.base, m.dim, ErrShapeMismatch)
		}
		bn := got[m.dim] / m.base[m.dim]
		for d := range got {
			want := m.base[d]
			if d == m.dim {
				want *= bn
			}
			if got[d] != want {
				return 0, fmt.Errorf("runtime: input %q has shape %v, want %v with dim %d scaled by the batch: %w", in.Name, got, m.base, m.dim, ErrShapeMismatch)
			}
		}
		if bn > s.plan.maxBatch {
			return 0, fmt.Errorf("runtime: input %q batch %d outside 1..%d (plan MaxBatch): %w", in.Name, bn, s.plan.maxBatch, ErrBatchTooLarge)
		}
		if bn < 1 {
			return 0, fmt.Errorf("runtime: input %q batch %d outside 1..%d (plan MaxBatch): %w", in.Name, bn, s.plan.maxBatch, ErrShapeMismatch)
		}
		if n != 0 && bn != n {
			return 0, fmt.Errorf("runtime: inputs disagree on batch size (%d vs %d): %w", bn, n, ErrShapeMismatch)
		}
		n = bn
		s.inTensors[i] = t
	}
	// Every declared input resolved; a larger request map must carry names
	// the graph does not declare (the error path may allocate freely).
	if len(inputs) > len(s.plan.g.Inputs) {
		for name := range inputs {
			if v := s.plan.g.Value(name); v == nil || !isGraphInput(s.plan.g, v) {
				return 0, fmt.Errorf("runtime: graph %q declares no input %q: %w", s.plan.g.Name, name, ErrUnknownInput)
			}
		}
	}
	if n == 0 {
		n = s.plan.maxBatch // no batched inputs: run at the planned shapes
	}
	return n, nil
}

// isGraphInput reports whether v is one of g's declared inputs.
func isGraphInput(g *graph.Graph, v *graph.Value) bool {
	for _, in := range g.Inputs {
		if in == v {
			return true
		}
	}
	return false
}

// LayerTiming records one node execution during a profiled run.
type LayerTiming struct {
	Node     *graph.Node
	Kernel   string
	Duration time.Duration
	Flops    int64
}

// Run executes the graph on the given named inputs and returns the graph
// outputs keyed by value name. The runtime batch size is taken from the
// inputs' leading dimension (any 1 ≤ n ≤ the plan's MaxBatch). Both the
// returned map and the output tensors (which alias arena storage) are
// reused by the next Run at the same batch size on this session; Clone
// tensors to keep results across runs.
//
// Cancellation is checked between plan steps: when ctx is cancelled (or
// its deadline passes) Run returns ctx.Err() at the next step boundary,
// leaving the arena in an undefined but reusable state. The check is a
// non-blocking channel poll, so an inert context (context.Background)
// costs one nil comparison per step and the steady-state path stays
// allocation-free.
func (s *Session) Run(ctx context.Context, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	outs, _, err := s.run(ctx, inputs, false)
	return outs, err
}

// Staging returns the session's [n, …] view of the plan's single input
// (1 ≤ n ≤ MaxBatch), for a caller that fills it sample by sample and
// hands it to RunOne. The view and its storage belong to the session and
// are reused by every later Staging(n) call: one buffer of MaxBatch
// samples, allocated on first use and kept outside the planned arena, so
// ArenaBytes does not count it.
func (s *Session) Staging(n int) *tensor.Tensor {
	if s.stageViews == nil {
		s.stageViews = make([]*tensor.Tensor, s.plan.maxBatch+1)
	}
	if t := s.stageViews[n]; t != nil {
		return t
	}
	in := s.plan.g.Inputs[0]
	if s.stage == nil {
		s.stage = make([]float32, s.plan.batchVolume(in, s.plan.maxBatch))
	}
	t := tensor.FromSlice(s.stage[:s.plan.batchVolume(in, n)], s.plan.batchShape(in, n)...)
	s.stageViews[n] = t
	return t
}

// RunOne runs a single-input single-output plan on in — a Staging view or
// any tensor of the input's batch-n shape — and returns the output, which
// aliases session storage exactly like Run's results. A plan with more
// inputs or outputs fails with ErrMultiIO. Steady-state RunOne at a batch
// size already run is allocation-free.
func (s *Session) RunOne(ctx context.Context, in *tensor.Tensor) (*tensor.Tensor, error) {
	g := s.plan.g
	if len(g.Inputs) != 1 || len(g.Outputs) != 1 {
		return nil, fmt.Errorf("runtime: RunOne on %d inputs and %d outputs: %w", len(g.Inputs), len(g.Outputs), ErrMultiIO)
	}
	if s.one == nil {
		s.one = make(map[string]*tensor.Tensor, 1)
	}
	s.one[g.Inputs[0].Name] = in
	outs, _, err := s.run(ctx, s.one, false)
	if err != nil {
		return nil, err
	}
	return outs[g.Outputs[0].Name], nil
}

// RunProfiled is Run plus per-layer wall-clock timings.
func (s *Session) RunProfiled(ctx context.Context, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, []LayerTiming, error) {
	return s.run(ctx, inputs, true)
}

// cancelCheck returns the context's done channel, observed once per run;
// a nil channel (context.Background and friends) disables the per-step
// poll entirely.
func cancelCheck(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// cancelled performs the non-blocking per-step poll of done.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Poisoned reports whether a plan step panicked on this session, leaving
// its arena and kernel scratch in an unknown state. A poisoned session
// must be discarded; SessionPool.Put does so automatically.
func (s *Session) Poisoned() bool { return s.poisoned }

// runStep executes one step behind the panic barrier: the fault-injection
// hook fires first (inside the barrier, so injected panics travel the
// same path as real ones), then the kernel. A recovered panic poisons the
// session and comes back as a *PlanPanicError carrying the step identity;
// the request fails, the process does not. The defer is open-coded and
// recover is reached only when panicking, so the steady-state path stays
// allocation-free.
func (s *Session) runStep(node *graph.Node, kernel ops.Kernel, in, out []*tensor.Tensor) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.poisoned = true
			err = &PlanPanicError{Model: s.plan.g.Name, Node: node.Name, Op: node.Op, Value: r}
		}
	}()
	if err := s.fault.Step(s.plan.g.Name, node.Name, node.Op); err != nil {
		return fmt.Errorf("runtime: node %q (%s): %w", node.Name, node.Op, err)
	}
	if err := kernel.Run(s.ctx, node, in, out); err != nil {
		return fmt.Errorf("runtime: node %q (%s, kernel %s): %w", node.Name, node.Op, kernel.Name(), err)
	}
	return nil
}

func (s *Session) run(ctx context.Context, inputs map[string]*tensor.Tensor, profile bool) (map[string]*tensor.Tensor, []LayerTiming, error) {
	n, err := s.resolveBatch(inputs)
	if err != nil {
		return nil, nil, err
	}
	done := cancelCheck(ctx)
	b := s.binds[n]
	if b == nil {
		b = s.bindFor(n)
		if s.plan.opts.NoBufferReuse {
			// Per-call allocation: this binding serves one run, and so
			// does a private cache, whose misses re-derive every weight.
			s.ctx.Consts = ops.NewConstCache()
		} else {
			s.binds[n] = b
		}
	}
	for _, pt := range s.inPatches {
		b.steps[pt.step].in[pt.arg] = s.inTensors[pt.input]
	}
	var timings []LayerTiming
	if profile {
		timings = make([]LayerTiming, 0, len(b.steps))
	}
	for i := range b.steps {
		if cancelled(done) {
			return nil, timings, ctx.Err()
		}
		st := &b.steps[i]
		for _, z := range st.zero {
			for j := range z {
				z[j] = 0
			}
		}
		start := time.Time{}
		if profile {
			start = time.Now()
		}
		if err := s.runStep(st.node, st.kernel, st.in, st.out); err != nil {
			return nil, nil, err
		}
		if profile {
			timings = append(timings, LayerTiming{
				Node:     st.node,
				Kernel:   st.kernel.Name(),
				Duration: time.Since(start),
				Flops:    scaledFlops(st.node, n, s.plan.maxBatch),
			})
		}
	}
	for _, ob := range b.outBinds {
		t := ob.t
		if ob.input >= 0 {
			t = s.inTensors[ob.input]
		}
		b.results[ob.name] = t
	}
	return b.results, timings, nil
}

// scaledFlops rescales a node's static flop estimate (taken at the plan's
// MaxBatch shapes) to the runtime batch n. Every op's flop count is linear
// in the batch, so the ratio is exact.
func scaledFlops(node *graph.Node, n, maxBatch int) int64 {
	fl := ops.NodeFlops(node)
	if maxBatch > 1 && n != maxBatch {
		fl = fl * int64(n) / int64(maxBatch)
	}
	return fl
}

// Plan returns the session's compiled plan.
func (s *Session) Plan() *Plan { return s.plan }
