package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/wire"
)

// ErrNotHosted marks an operation on a model name the registry does not
// hold (Remove of an unknown model; the HTTP layer maps lookup misses to
// 404 before execution).
var ErrNotHosted = fmt.Errorf("serve: model not hosted")

// config is the server-wide serving policy, fixed at New time. Per-model
// options override the queue depth and request timeout; everything else
// applies uniformly.
type config struct {
	maxBatch    int
	flush       time.Duration
	flushSet    bool
	queueDepth  int
	reqTimeout  time.Duration
	int8        bool
	inflightCap int
}

// Option configures a Server (and the Registry inside it) at New time.
type Option func(*config)

// WithMaxBatch sets the dynamic-batching width: models are compiled for up
// to n samples per run and concurrent /predict requests are coalesced into
// batches of up to n. n <= 1 disables batching (the default).
func WithMaxBatch(n int) Option {
	return func(c *config) { c.maxBatch = n }
}

// WithFlushDeadline sets how long a pending request waits for batch peers
// before being flushed. Exactly 0 selects immediate-flush mode: every
// request executes as soon as the collector sees it, batched only with
// requests already queued at that instant. Negative values select the
// default (DefaultFlushDeadline).
func WithFlushDeadline(d time.Duration) Option {
	return func(c *config) { c.flush, c.flushSet = d, true }
}

// WithQueueDepth bounds each model's batching queue: a /predict request
// arriving while n requests are already queued (submitted but not yet
// claimed by a batch) is shed immediately with 429 and a Retry-After
// estimate instead of joining an unbounded goroutine pile-up. n <= 0
// (the default) leaves queues unbounded. Only batching servers
// (WithMaxBatch > 1) have queues; on unbatched servers use
// WithMaxInflight.
func WithQueueDepth(n int) Option {
	return func(c *config) { c.queueDepth = n }
}

// WithMaxInflight caps concurrent request executions server-wide (both
// /predict and /profile, across all models): requests beyond the cap are
// shed with 429. When hosted models carry distinct priorities
// (WithModelPriority), the cap is tiered — see the Registry docs — so
// low-priority models are shed first as the server fills. n <= 0 (the
// default) disables the limiter.
func WithMaxInflight(n int) Option {
	return func(c *config) { c.inflightCap = n }
}

// WithRequestTimeout bounds a request's execution time, not just its
// queue wait: solo runs execute under a context deadline enforced at
// plan-step boundaries, and batched runs get the same bound as the
// batcher's RunTimeout. Requests over the deadline fail with
// context.DeadlineExceeded (→ 500). d <= 0 (the default) disables the
// bound.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.reqTimeout = d }
}

// WithInt8 compiles hosted models onto the int8 quantized execution tier
// (see internal/README.md): conv and dense layers run u8×s8 GEMMs with
// plan-time-quantized weights wherever a quantized kernel supports them.
// The wire contract is unchanged — inputs and outputs stay float32 —
// but outputs carry quantization noise relative to an fp32 server.
func WithInt8() Option {
	return func(c *config) { c.int8 = true }
}

// modelSettings is the resolved per-model policy a ModelOption edits.
type modelSettings struct {
	priority int
}

// ModelOption configures one hosted model at Add time.
type ModelOption func(*modelSettings)

// WithModelPriority assigns the model's shedding priority (default 0;
// higher is more important). Priorities only matter relative to each
// other and only under WithMaxInflight: when the server fills up,
// models in lower priority classes hit their admission limit — and shed
// with 429 — before higher classes do. See Registry for the exact
// tiering.
func WithModelPriority(p int) ModelOption {
	return func(m *modelSettings) { m.priority = p }
}

// Registry holds the hosted models of one serving process: per-model
// compiled plans, session pools, batchers and serving policy, behind a
// lock cheap enough to take on every request. Models can be added and
// removed while the server is accepting traffic; removal drains the
// model's batcher, so requests already queued on it complete (or fail
// with a typed error), they are never silently dropped.
//
// # Priority tiers
//
// Under a server-wide in-flight cap C (WithMaxInflight), models are
// ranked by their priority class. With n distinct classes, the class at
// rank r from the top admits new work only while fewer than C−C·r/n
// requests are in flight (floor 1). The top class may always fill the
// whole server; the bottom class is shed first as the server fills. With
// a single class (the default) every model admits up to C — the flat
// behaviour of a priority-less server. Limits are recomputed whenever
// the model set changes.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	cfg     config
}

// NewRegistry returns an empty registry with the given serving policy.
func NewRegistry(opts ...Option) *Registry {
	cfg := config{maxBatch: 1, flush: DefaultFlushDeadline}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxBatch < 1 {
		cfg.maxBatch = 1
	}
	if !cfg.flushSet || cfg.flush < 0 {
		cfg.flush = DefaultFlushDeadline
	}
	return &Registry{entries: make(map[string]*Entry), cfg: cfg}
}

// Add compiles g under the named backend and hosts it as name. The HTTP
// wire contract is single-I/O (one flat input array, one output array),
// so multi-input/multi-output graphs are rejected. Add may run while the
// server is accepting traffic; the model serves as soon as Add returns.
func (reg *Registry) Add(name string, g *graph.Graph, backendName string, workers int, opts ...ModelOption) error {
	var ms modelSettings
	for _, o := range opts {
		o(&ms)
	}
	be, err := backend.ByName(backendName)
	if err != nil {
		return err
	}
	plan, err := be.PrepareWith(g, backend.PrepareOpts{Workers: workers, MaxBatch: reg.cfg.maxBatch, Int8: reg.cfg.int8})
	if err != nil {
		return fmt.Errorf("serve: compiling %s: %w", name, err)
	}
	ins, outs := plan.InputDescs(), plan.OutputDescs()
	if len(ins) != 1 || len(outs) != 1 {
		return fmt.Errorf("serve: model %q has %d inputs and %d outputs; the HTTP contract serves single-input single-output models", name, len(ins), len(outs))
	}
	e := &Entry{
		Name:     name,
		Backend:  backendName,
		nodes:    len(g.Nodes),
		sessions: runtime.NewSessionPool(plan),
		inShape1: ins[0].Shape,
		priority: ms.priority,
	}
	e.perVol = tensor.Volume(e.inShape1)
	e.maxWireLen = wire.HeaderSize(wire.MaxRank) + 4*e.perVol
	e.maxJSONLen = 64*int64(e.perVol) + 4096
	if reg.cfg.maxBatch > 1 {
		e.batcher, err = runtime.NewBatcher(e.sessions, runtime.BatcherOptions{
			FlushDeadline: reg.cfg.flush,
			Immediate:     reg.cfg.flush == 0,
			QueueDepth:    reg.cfg.queueDepth,
			RunTimeout:    reg.cfg.reqTimeout,
		})
		if err != nil {
			return fmt.Errorf("serve: batching %s: %w", name, err)
		}
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.entries[name]; dup {
		if e.batcher != nil {
			e.batcher.Close()
		}
		return fmt.Errorf("serve: model %q already hosted", name)
	}
	reg.entries[name] = e
	reg.recomputeAdmitLocked()
	return nil
}

// Remove unhosts the named model. The model disappears from lookup
// first (new requests get 404), then its batcher drains: requests
// already queued execute to completion, requests racing the removal get
// a typed ErrClosed (→ 503). Remove returns ErrNotHosted for unknown
// names.
func (reg *Registry) Remove(name string) error {
	reg.mu.Lock()
	e, ok := reg.entries[name]
	if !ok {
		reg.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotHosted, name)
	}
	delete(reg.entries, name)
	reg.recomputeAdmitLocked()
	reg.mu.Unlock()
	if e.batcher != nil {
		e.batcher.Close()
	}
	return nil
}

// Names lists the hosted models, sorted.
func (reg *Registry) Names() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	names := make([]string, 0, len(reg.entries))
	for name := range reg.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len reports how many models the registry currently hosts.
func (reg *Registry) Len() int {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	return len(reg.entries)
}

// lookup resolves a model name to its live entry.
func (reg *Registry) lookup(name string) (*Entry, bool) {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	e, ok := reg.entries[name]
	return e, ok
}

// snapshot returns the current entries, unordered.
func (reg *Registry) snapshot() []*Entry {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	es := make([]*Entry, 0, len(reg.entries))
	for _, e := range reg.entries {
		es = append(es, e)
	}
	return es
}

// close drains every hosted batcher; requests already queued execute to
// completion before it returns.
func (reg *Registry) close() {
	for _, e := range reg.snapshot() {
		if e.batcher != nil {
			e.batcher.Close()
		}
	}
}

// recomputeAdmitLocked derives each entry's admission limit from the
// in-flight cap and the current priority classes (see the Registry doc
// comment for the tiering rule). Limits live in per-entry atomics so the
// hot admission path never takes the registry lock for them.
func (reg *Registry) recomputeAdmitLocked() {
	capN := reg.cfg.inflightCap
	if capN <= 0 {
		for _, e := range reg.entries {
			e.admitLimit.Store(math.MaxInt64)
		}
		return
	}
	classes := make([]int, 0, len(reg.entries))
	for _, e := range reg.entries {
		if !slices.Contains(classes, e.priority) {
			classes = append(classes, e.priority)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	n := len(classes)
	for _, e := range reg.entries {
		rank := slices.Index(classes, e.priority)
		limit := capN - capN*rank/n
		if limit < 1 {
			limit = 1
		}
		e.admitLimit.Store(int64(limit))
	}
}
