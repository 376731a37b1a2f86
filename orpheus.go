// Package orpheus is the public facade of the Orpheus deep-learning
// inference framework: a Go reproduction of "Orpheus: A New Deep Learning
// Framework for Easy Deployment and Evaluation of Edge Inference"
// (Gibson & Cano, ISPASS 2020).
//
// The facade wraps the internal subsystems behind a small, context-first
// API designed for the serving path:
//
//	model, _ := orpheus.LoadONNX("mobilenet.onnx")     // or orpheus.BuildZooModel("mobilenet-v1")
//	sess, _ := model.Compile(orpheus.WithBackend("orpheus"))
//	defer sess.Close()                                  // graceful drain
//	out, _ := sess.Predict(ctx, input)                  // *orpheus.Tensor, NCHW float32
//
// Every predict path takes a context.Context: cancellation aborts a
// request while it waits in a batcher queue and interrupts a running plan
// at the next step boundary. Errors wrap the typed sentinels
// (ErrShapeMismatch, ErrClosed, ...) so callers branch with errors.Is.
// Multi-input/multi-output graphs run through the named-tensor Run path,
// described by the Inputs and Outputs descriptors. See docs/API.md for
// the full request lifecycle.
//
// Layers are first-class citizens with multiple registered kernels;
// Compile selects one implementation per layer through the chosen
// backend's policy (fixed preference, size heuristic, or empirical
// auto-tuning), mirrors the paper's design, and plans an arena for
// intermediate activations.
package orpheus

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/onnx"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// Tensor is the dense float32 NCHW tensor type used at the API boundary.
type Tensor = tensor.Tensor

// IODesc describes one model input or output at the API boundary: name,
// single-sample shape, element type and whether the shape scales with the
// runtime batch. It is the metadata needed to drive Run on
// multi-input/multi-output graphs without reaching into the IR.
type IODesc = runtime.IODesc

// Typed sentinel errors of the request lifecycle, re-exported from the
// runtime so embedders switch on errors.Is without importing internals.
// Context cancellation surfaces as context.Canceled /
// context.DeadlineExceeded, not as a package sentinel.
var (
	// ErrShapeMismatch marks an input or destination tensor whose shape or
	// volume does not match the compiled plan.
	ErrShapeMismatch = runtime.ErrShapeMismatch
	// ErrUnknownInput marks a named input the graph does not declare, or a
	// declared input missing from a Run request.
	ErrUnknownInput = runtime.ErrUnknownInput
	// ErrUnknownOutput marks a request for an output name the graph does
	// not produce.
	ErrUnknownOutput = runtime.ErrUnknownOutput
	// ErrBatchTooLarge marks a batch larger than the session's MaxBatch.
	ErrBatchTooLarge = runtime.ErrBatchTooLarge
	// ErrClosed marks a request submitted after Close.
	ErrClosed = runtime.ErrClosed
	// ErrOverloaded marks a request rejected at admission because a bounded
	// batcher queue (WithQueueDepth) was full. Overload rejections are
	// immediate — the request never waits — so callers can retry after a
	// short backoff.
	ErrOverloaded = runtime.ErrOverloaded
	// ErrPlanPanic marks a request that failed because a plan step panicked.
	// The panic is contained: only the affected request (or batch) fails,
	// the poisoned session is quarantined, and the process keeps serving.
	// Inspect the full *runtime.PlanPanicError with errors.As for the
	// model, node and recovered value.
	ErrPlanPanic = runtime.ErrPlanPanic
	// ErrMultiIO marks a single-tensor convenience call (Predict,
	// PredictBatch, Benchmark, ...) on a model with more than one input or
	// output; use Run with named tensors instead.
	ErrMultiIO = runtime.ErrMultiIO
)

// NewTensor returns a zero tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromSlice wraps data (not copied) in a tensor of the given shape.
func TensorFromSlice(data []float32, shape ...int) *Tensor {
	return tensor.FromSlice(data, shape...)
}

// RandomTensor returns a deterministic uniform[-1,1) tensor, seeded by
// seed — handy for benchmarks and examples.
func RandomTensor(seed uint64, shape ...int) *Tensor {
	return tensor.Rand(tensor.NewRNG(seed), -1, 1, shape...)
}

// Model is a loaded (not yet compiled) network.
type Model struct {
	g *graph.Graph
}

// LoadONNX reads an ONNX file into a Model.
func LoadONNX(path string) (*Model, error) {
	g, err := onnx.ImportFile(path)
	if err != nil {
		return nil, err
	}
	return &Model{g: g}, nil
}

// FromGraph wraps an already-built graph (advanced use; see internal/zoo
// for builder examples).
func FromGraph(g *graph.Graph) *Model { return &Model{g: g} }

// BuildZooModel constructs one of the paper's five evaluation networks by
// name: "wrn-40-2", "mobilenet-v1", "resnet-18", "inception-v3",
// "resnet-50".
func BuildZooModel(name string) (*Model, error) {
	g, err := zoo.Build(name, 1)
	if err != nil {
		return nil, err
	}
	return &Model{g: g}, nil
}

// ZooModels lists the available built-in model names in the paper's
// Figure 2 order.
func ZooModels() []string { return zoo.Names() }

// SaveONNX writes the model to an ONNX file.
func (m *Model) SaveONNX(path string) error { return onnx.ExportFile(m.g, path) }

// Graph exposes the underlying IR (read-mostly; Compile clones before
// optimising).
func (m *Model) Graph() *graph.Graph { return m.g }

// InputName returns the model's first input value name (models with more
// than one input are described by Session.Inputs).
func (m *Model) InputName() string { return m.g.Inputs[0].Name }

// InputShape returns the model's first input shape.
func (m *Model) InputShape() []int { return m.g.Inputs[0].Shape }

// Summary returns a one-line description of the model.
func (m *Model) Summary() string {
	return fmt.Sprintf("%s: %d nodes, %.2fM params, input %s",
		m.g.Name, len(m.g.Nodes), float64(m.g.NumParams())/1e6, tensor.ShapeString(m.g.Inputs[0].Shape))
}

// Optimize runs the graph-simplification pipeline in place on the model
// (Compile does this automatically for optimising backends; call this to
// inspect or export the optimised graph).
func (m *Model) Optimize() error {
	_, err := passes.Default().Run(m.g)
	return err
}

// compileConfig collects Compile options.
type compileConfig struct {
	backendName string
	workers     int
	maxBatch    int
	int8        bool
}

// CompileOption configures Compile.
type CompileOption func(*compileConfig)

// WithBackend selects the execution backend: "orpheus" (default),
// "orpheus-heuristic", "orpheus-tuned", or the framework simulations
// "tvm-sim", "torch-sim", "darknet-sim", "tflite-sim".
func WithBackend(name string) CompileOption {
	return func(c *compileConfig) { c.backendName = name }
}

// WithWorkers sets the kernel thread budget (default 1, the paper's
// single-core configuration).
func WithWorkers(n int) CompileOption {
	return func(c *compileConfig) { c.workers = n }
}

// WithMaxBatch compiles the session for runtime batching: arena slots are
// sized for up to n samples, and Predict/PredictBatch/Run accept any batch
// 1 ≤ b ≤ n per call. Larger n trades arena memory (see MemoryFootprint)
// for amortised weight traffic per sample. Default 1.
func WithMaxBatch(n int) CompileOption {
	return func(c *compileConfig) { c.maxBatch = n }
}

// WithInt8 enables the quantized execution tier: convolution and dense
// layers with constant weights run as u8×s8 GEMMs with int32 accumulation
// (AVX2 VPMADDUBSW / AVX-512 VNNI where available). Weights are quantized
// per output channel and prepacked once, at Compile (~4× smaller than the
// fp32 packed panels, and the session keeps no fp32 copy of them);
// activations are quantized on the fly at the GEMM pack boundary, and the
// int32→fp32 requantize, bias and activation fuse into the GEMM epilogue.
// Outputs differ from fp32 by the quantization error (typically well under
// 1% relative on the zoo models — validate for your model; `go run ./bench
// -workload dense-int8` checks resnet-18 against fp32 goldens on every
// op). With the "orpheus-tuned" backend the auto-tuner instead arbitrates
// fp32 vs int8 per layer on measured time, once, at compile; the decision
// holds at every runtime batch size.
func WithInt8() CompileOption {
	return func(c *compileConfig) { c.int8 = true }
}

// Backends lists the registered backend names.
func Backends() []string { return backend.Names() }

// Session is a compiled, executable model. It is safe for concurrent use:
// any number of goroutines may call Predict/PredictBatch/Run at once. Each
// in-flight call borrows a runtime session (private arena, scratch and
// input staging) from the plan's session pool, a free list of idle
// sessions, so concurrent requests share the compiled plan and its packed
// weights but never share mutable state.
//
// Close drains the session: it waits for in-flight requests, shuts down
// any batchers created with NewBatcher, and makes subsequent requests
// fail with ErrClosed.
//
// A Session does not retain the Model it was compiled from: it runs on
// its own optimised copy of the graph, holding each weight once (as
// packed panels where a kernel packs it), so dropping the Model frees
// every tensor the session does not use.
type Session struct {
	sessions *runtime.SessionPool
	maxBatch int
	singleIO bool

	// mu gates the request lifecycle: every request holds it shared for
	// its duration, Close takes it exclusively — so Close both drains
	// in-flight work and flips closed atomically with respect to new
	// requests. batchers lists the NewBatcher children Close must drain;
	// closeOnce/closeDone make every Close caller block until the full
	// drain (requests and batchers) has finished.
	mu        sync.RWMutex
	closed    bool
	batchers  []*Batcher
	closeOnce sync.Once
	closeDone chan struct{}
}

// Compile plans and allocates an executable session for the model.
func (m *Model) Compile(opts ...CompileOption) (*Session, error) {
	cfg := compileConfig{backendName: "orpheus", workers: 1, maxBatch: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	be, err := backend.ByName(cfg.backendName)
	if err != nil {
		return nil, err
	}
	plan, err := be.PrepareWith(m.g, backend.PrepareOpts{
		Workers: cfg.workers, MaxBatch: cfg.maxBatch, Int8: cfg.int8})
	if err != nil {
		return nil, err
	}
	return &Session{
		sessions:  runtime.NewSessionPool(plan),
		maxBatch:  plan.MaxBatch(),
		singleIO:  len(plan.InputDescs()) == 1 && len(plan.OutputDescs()) == 1,
		closeDone: make(chan struct{}),
	}, nil
}

// MaxBatch returns the largest batch a single Predict/Run call accepts
// (set by WithMaxBatch; default 1).
func (s *Session) MaxBatch() int { return s.maxBatch }

// Inputs describes the model's inputs: one descriptor per graph input,
// in declaration order, with single-sample shapes. Together with Outputs
// it is the contract for driving Run on any graph, including
// multi-input/multi-output ones.
func (s *Session) Inputs() []IODesc { return s.sessions.Plan().InputDescs() }

// Outputs describes the model's outputs, mirroring Inputs.
func (s *Session) Outputs() []IODesc { return s.sessions.Plan().OutputDescs() }

// acquire registers one in-flight request; it fails once the session is
// closed. The shared lock costs two atomic operations per request and no
// allocations on the steady-state path.
func (s *Session) acquire() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("orpheus: session: %w", ErrClosed)
	}
	return nil
}

// release ends an in-flight request.
func (s *Session) release() { s.mu.RUnlock() }

// Close drains the session gracefully: batchers created with NewBatcher
// stop accepting work and finish their in-flight batches, every predict
// already past its ErrClosed check completes, and only then does Close
// return. Subsequent predicts fail with ErrClosed. Close is idempotent
// and safe to call concurrently with requests.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		// Acquiring the write side waits out every in-flight request (they
		// hold the read side); setting closed under it makes the rejection
		// of new requests atomic with the drain.
		s.mu.Lock()
		s.closed = true
		batchers := s.batchers
		s.batchers = nil
		s.mu.Unlock()
		for _, b := range batchers {
			b.rb.Close() // blocks until the batcher's in-flight batches deliver
		}
		close(s.closeDone)
	})
	// Every caller — not just the first — returns only after the full
	// drain has finished.
	<-s.closeDone
	return nil
}

// Predict runs inference on a single input tensor and returns a copy of
// the model's (single) output. The copy is freshly allocated; latency-
// critical callers should reuse an output tensor via PredictInto. A
// cancelled ctx interrupts the running plan at the next step boundary.
func (s *Session) Predict(ctx context.Context, input *Tensor) (*Tensor, error) {
	return s.PredictInto(ctx, nil, input)
}

// PredictInto is Predict with a caller-owned destination: the output is
// copied into dst (which must hold exactly the model's output volume) and
// dst is returned. A nil dst allocates a fresh output tensor. The input
// is bound as is, never copied; with a reused dst the whole facade path —
// session run and output copy — performs zero steady-state heap
// allocations.
func (s *Session) PredictInto(ctx context.Context, dst, input *Tensor) (*Tensor, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()
	rs := s.sessions.Get()
	defer s.sessions.Put(rs)
	out, err := rs.RunOne(ctx, input)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		return out.Clone(), nil
	}
	if dst.Size() != out.Size() {
		return nil, fmt.Errorf("orpheus: destination holds %d values, output needs %d: %w", dst.Size(), out.Size(), ErrShapeMismatch)
	}
	copy(dst.Data(), out.Data())
	return dst, nil
}

// PredictBatch runs one batched inference over up to MaxBatch independent
// single-sample inputs and returns one output copy per input. The whole
// batch flows through the graph as a single leading-dimension-n execution,
// so constant weights (and their packed GEMM panels) are read once per
// batch instead of once per sample.
func (s *Session) PredictBatch(ctx context.Context, inputs []*Tensor) ([]*Tensor, error) {
	return s.PredictBatchInto(ctx, make([]*Tensor, len(inputs)), inputs)
}

// PredictBatchInto is PredictBatch with caller-owned destinations: dsts
// must have one (possibly nil, then allocated) tensor per input, each
// holding exactly one sample's output volume. With reused destinations the
// batched facade path performs zero steady-state heap allocations.
func (s *Session) PredictBatchInto(ctx context.Context, dsts, inputs []*Tensor) ([]*Tensor, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()
	if !s.singleIO {
		return nil, fmt.Errorf("orpheus: PredictBatch: %w", ErrMultiIO)
	}
	n := len(inputs)
	if n == 0 {
		return nil, fmt.Errorf("orpheus: PredictBatch needs at least one input: %w", ErrShapeMismatch)
	}
	if n > s.maxBatch {
		return nil, fmt.Errorf("orpheus: batch %d exceeds the session's max batch %d (compile with WithMaxBatch): %w", n, s.maxBatch, ErrBatchTooLarge)
	}
	if len(dsts) != n {
		return nil, fmt.Errorf("orpheus: %d destinations for %d inputs: %w", len(dsts), n, ErrShapeMismatch)
	}
	rs := s.sessions.Get()
	defer s.sessions.Put(rs)
	view := rs.Staging(n)
	buf := view.Data()
	perVol := len(buf) / n
	for i, in := range inputs {
		if in.Size() != perVol {
			return nil, fmt.Errorf("orpheus: input %d has %d values, model wants %d (%s): %w", i, in.Size(), perVol, tensor.ShapeString(s.Inputs()[0].Shape), ErrShapeMismatch)
		}
		copy(buf[i*perVol:(i+1)*perVol], in.Data())
	}
	out, err := rs.RunOne(ctx, view)
	if err != nil {
		return nil, err
	}
	if out.Size()%n != 0 || out.Rank() == 0 || out.Dim(0)%n != 0 {
		return nil, fmt.Errorf("orpheus: output %s does not split across batch %d: %w", tensor.ShapeString(out.Shape()), n, ErrShapeMismatch)
	}
	rowVol := out.Size() / n
	od := out.Data()
	for i := range dsts {
		if dsts[i] == nil {
			shape := append([]int(nil), out.Shape()...)
			shape[0] /= n
			dsts[i] = tensor.New(shape...)
		} else if dsts[i].Size() != rowVol {
			return nil, fmt.Errorf("orpheus: destination %d holds %d values, output row needs %d: %w", i, dsts[i].Size(), rowVol, ErrShapeMismatch)
		}
		copy(dsts[i].Data(), od[i*rowVol:(i+1)*rowVol])
	}
	return dsts, nil
}

// Run executes the graph on named inputs and returns copies of all
// outputs by name — the general path for multi-input/multi-output graphs
// (see Inputs/Outputs for the contract). Run is batch-aware: inputs whose
// leading dimension carries 1 ≤ n ≤ MaxBatch samples execute as one
// batched pass. A cancelled ctx interrupts the plan at the next step
// boundary.
func (s *Session) Run(ctx context.Context, inputs map[string]*Tensor) (map[string]*Tensor, error) {
	if err := s.acquire(); err != nil {
		return nil, err
	}
	defer s.release()
	return s.sessions.Run(ctx, inputs)
}

// LayerTiming mirrors runtime.LayerTiming at the public boundary.
type LayerTiming = runtime.LayerTiming

// PredictProfiled runs inference and returns per-layer timings alongside
// the output.
func (s *Session) PredictProfiled(ctx context.Context, input *Tensor) (*Tensor, []LayerTiming, error) {
	if err := s.acquire(); err != nil {
		return nil, nil, err
	}
	defer s.release()
	if !s.singleIO {
		return nil, nil, fmt.Errorf("orpheus: PredictProfiled: %w", ErrMultiIO)
	}
	rs := s.sessions.Get()
	defer s.sessions.Put(rs)
	outs, timings, err := rs.RunProfiled(ctx, s.bindOne(input))
	if err != nil {
		return nil, nil, err
	}
	return outs[s.Outputs()[0].Name].Clone(), timings, nil
}

// BenchStats mirrors runtime.Stats at the public boundary.
type BenchStats = runtime.Stats

// WriteTrace serialises per-layer timings from PredictProfiled as a
// Chrome trace-event JSON document viewable in chrome://tracing.
func WriteTrace(w io.Writer, timings []LayerTiming) error {
	return runtime.WriteTrace(w, timings)
}

// Benchmark times repeated inference (warm-up + reps) on the given input,
// holding one pooled session for the whole measurement. A cancelled ctx
// aborts the sweep at the next plan-step boundary.
func (s *Session) Benchmark(ctx context.Context, input *Tensor, warmup, reps int) (BenchStats, error) {
	if err := s.acquire(); err != nil {
		return BenchStats{}, err
	}
	defer s.release()
	if !s.singleIO {
		return BenchStats{}, fmt.Errorf("orpheus: Benchmark: %w", ErrMultiIO)
	}
	rs := s.sessions.Get()
	defer s.sessions.Put(rs)
	return runtime.Measure(ctx, rs, s.bindOne(input), warmup, reps)
}

// bindOne names input as the model's single input, the form the
// named-tensor runtime calls take.
func (s *Session) bindOne(input *Tensor) map[string]*Tensor {
	return map[string]*Tensor{s.Inputs()[0].Name: input}
}

// PlanSummary describes the compiled plan: one line per layer with the
// selected kernel, for the paper's "independently altered and assayed"
// workflow.
func (s *Session) PlanSummary() []string {
	steps := s.sessions.Plan().Steps()
	out := make([]string, len(steps))
	for i, st := range steps {
		out[i] = fmt.Sprintf("%-30s %-12s %s", st.Node.Name, st.Node.Op, st.Kernel)
	}
	return out
}

// MemoryFootprint reports the planned memory use in bytes: the constant
// data the plan holds as is (biases, depthwise weights, and every weight
// under a backend whose kernels read them raw) and the activation arena
// of one pooled session. Weights held as packed panels are not in
// weights; ConstBytes reports them, so weights + ConstBytes is the whole
// weight footprint.
func (s *Session) MemoryFootprint() (weights, arena int64) {
	return s.sessions.Plan().WeightBytes(), s.sessions.Plan().ArenaBytes()
}

// ConstBytes reports the footprint of the plan's derived constants —
// the packed weight panels kernels cache per layer (under WithInt8, the
// int8 panels plus their per-channel scale and row-sum metadata, about a
// quarter of the fp32 panels they replace). Compile builds the panels, so
// the figure is final when Compile returns (the Winograd and NHWC kernels
// of the tuned and layout experiments still add theirs on the first run).
func (s *Session) ConstBytes() int64 { return s.sessions.Plan().ConstBytes() }

// Batcher coalesces concurrent single-sample Predict calls into batched
// runs — the dynamic batching the HTTP server uses, as an embeddable
// library primitive. Create one per Session with NewBatcher; see
// runtime.Batcher for the collection semantics.
type Batcher struct {
	s  *Session
	rb *runtime.Batcher
}

// BatcherOption configures NewBatcher.
type BatcherOption func(*runtime.BatcherOptions)

// WithFlushDeadline sets how long a lone queued request waits for batch
// peers before executing anyway (default 2 ms).
func WithFlushDeadline(d time.Duration) BatcherOption {
	return func(o *runtime.BatcherOptions) { o.FlushDeadline = d }
}

// WithImmediateFlush makes every request execute as soon as the batcher
// sees it, coalescing only requests already queued at that instant —
// lowest latency, opportunistic batching.
func WithImmediateFlush() BatcherOption {
	return func(o *runtime.BatcherOptions) { o.Immediate = true }
}

// WithQueueDepth bounds the batcher's admission queue: once n requests
// are queued or running, further Predicts fail immediately with
// ErrOverloaded instead of queueing without limit. 0 (the default) means
// unbounded. Bounding the queue keeps latency predictable under overload
// — work is shed at the door, not after it has waited.
func WithQueueDepth(n int) BatcherOption {
	return func(o *runtime.BatcherOptions) { o.QueueDepth = n }
}

// WithRunTimeout bounds each batched run's execution time (queue wait is
// governed separately, by the caller's ctx). A run over budget is
// cancelled at the next plan-step boundary and every request in the batch
// fails with context.DeadlineExceeded. 0 (the default) means no limit.
func WithRunTimeout(d time.Duration) BatcherOption {
	return func(o *runtime.BatcherOptions) { o.RunTimeout = d }
}

// NewBatcher creates a dynamic batcher over the session. Up to MaxBatch
// concurrent Predict calls coalesce into one batched run (compile with
// WithMaxBatch to widen it). The session must be single-input
// single-output. Session.Close drains the batcher; closing the batcher
// alone leaves the session usable.
func (s *Session) NewBatcher(opts ...BatcherOption) (*Batcher, error) {
	if !s.singleIO {
		return nil, fmt.Errorf("orpheus: NewBatcher: %w", ErrMultiIO)
	}
	var o runtime.BatcherOptions
	for _, opt := range opts {
		opt(&o)
	}
	// Setup-time call: take the write side outright, so registration
	// cannot race Close's drain of the batcher list.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("orpheus: session: %w", ErrClosed)
	}
	rb, err := runtime.NewBatcher(s.sessions, o)
	if err != nil {
		return nil, err
	}
	b := &Batcher{s: s, rb: rb}
	s.batchers = append(s.batchers, b)
	return b, nil
}

// Predict submits one input to the batcher and blocks until its batch
// executes (or ctx is cancelled while the request is queued; once a batch
// has claimed the request, its completed result is delivered even if ctx
// expires mid-run). The input must stay unmodified until Predict returns.
func (b *Batcher) Predict(ctx context.Context, input *Tensor) (*Tensor, error) {
	res, err := b.rb.Submit(ctx, input.Data(), 0)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(res.Output, res.Shape...), nil
}

// PredictWait is Predict with a per-request cap on how long the request
// waits for batch peers (≤ 0 means the batcher's flush deadline).
func (b *Batcher) PredictWait(ctx context.Context, input *Tensor, wait time.Duration) (*Tensor, error) {
	res, err := b.rb.Submit(ctx, input.Data(), wait)
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(res.Output, res.Shape...), nil
}

// Flush executes whatever is queued right now instead of waiting out the
// flush deadline.
func (b *Batcher) Flush() { b.rb.Flush() }

// BatcherStats mirrors runtime.BatcherStats at the public boundary: queue
// depth, launched runs, flush causes and cumulative queued wait.
type BatcherStats = runtime.BatcherStats

// Stats snapshots the batcher's observability counters.
func (b *Batcher) Stats() BatcherStats { return b.rb.Stats() }

// Close stops the batcher and drains its in-flight batches; subsequent
// Predicts on the batcher fail with ErrClosed. The owning Session stays
// usable, and the batcher is unregistered from it so long-lived sessions
// that churn batchers do not accumulate dead ones.
func (b *Batcher) Close() {
	s := b.s
	s.mu.Lock()
	for i, x := range s.batchers {
		if x == b {
			s.batchers = append(s.batchers[:i], s.batchers[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	b.rb.Close()
}
