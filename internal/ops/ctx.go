package ops

import (
	"sync"

	"orpheus/internal/gemm"
	"orpheus/internal/graph"
)

// ctxKey scopes scratch and constant-cache entries to a (kind, node) pair.
// Keys are composite values, not concatenated strings, so hot-path lookups
// allocate nothing.
type ctxKey struct {
	kind string
	node *graph.Node
}

// ConstCache holds run-invariant derived constants — prepacked GEMM weight
// panels, Winograd weight transforms, transposed dense weights — keyed by
// (kind, node). It is safe for concurrent use. Every Session compiled from
// one Plan shares a single ConstCache, and runtime.Compile fills the
// entries of every Prepacker kernel before any session exists, so pooled
// serving sessions only read those. Entries still built at first use —
// kernels run outside a plan, and kernels that are not Prepackers — may
// see two sessions racing on a miss: both compute the identical,
// deterministic value and one store wins, which is benign. A session
// emulating per-call allocation instead uses a fresh cache per run, so its
// kernels rebuild every entry on every run.
type ConstCache struct {
	mu     sync.RWMutex
	m      map[ctxKey][]float32
	q      map[ctxKey]*Int8Weights
	stores int64
}

// Int8Weights is a ConstCache entry for the quantized execution tier: a
// weight matrix quantized per output channel to the int8 GEMM contract
// ([-63, 63], quant.QMaxGemm), prepacked into the int8 panel layout, with
// the per-row scales and quantized-row sums the requantize epilogue needs.
// For grouped convolution, Packed holds the groups' panel buffers back to
// back and Scales/RowSums cover all cout rows.
type Int8Weights struct {
	Packed  []int8
	Scales  []float32
	RowSums []int32
}

// Bytes returns the entry's memory footprint.
func (w *Int8Weights) Bytes() int64 {
	return int64(len(w.Packed)) + int64(len(w.Scales))*4 + int64(len(w.RowSums))*4
}

// NewConstCache returns an empty cache.
func NewConstCache() *ConstCache {
	return &ConstCache{m: make(map[ctxKey][]float32), q: make(map[ctxKey]*Int8Weights)}
}

func (cc *ConstCache) get(k ctxKey) []float32 {
	cc.mu.RLock()
	buf := cc.m[k]
	cc.mu.RUnlock()
	return buf
}

// put stores buf and reports whether the key was previously absent.
func (cc *ConstCache) put(k ctxKey, buf []float32) bool {
	cc.mu.Lock()
	_, existed := cc.m[k]
	cc.m[k] = buf
	cc.stores++
	cc.mu.Unlock()
	return !existed
}

func (cc *ConstCache) getInt8(k ctxKey) *Int8Weights {
	cc.mu.RLock()
	w := cc.q[k]
	cc.mu.RUnlock()
	return w
}

// putInt8 stores w and reports whether the key was previously absent.
func (cc *ConstCache) putInt8(k ctxKey, w *Int8Weights) bool {
	cc.mu.Lock()
	if cc.q == nil {
		cc.q = make(map[ctxKey]*Int8Weights)
	}
	_, existed := cc.q[k]
	cc.q[k] = w
	cc.stores++
	cc.mu.Unlock()
	return !existed
}

// Stores counts every store into the cache, a racing session's redundant
// one included, so it exceeds the number of entries exactly when some
// entry was computed more than once.
func (cc *ConstCache) Stores() int64 {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.stores
}

// Bytes returns the total footprint of the cached constants, fp32 and
// int8 entries alike.
func (cc *ConstCache) Bytes() int64 {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	var total int64
	for _, b := range cc.m {
		total += int64(len(b)) * 4
	}
	for _, w := range cc.q {
		total += w.Bytes()
	}
	return total
}

// Ctx carries per-session execution state into kernels: the worker count,
// the GEMM packing context and worker pool, the shared constant cache and
// a keyed scratch-buffer pool.
//
// Scratch buffers let kernels such as im2col reuse their unfold buffers
// across inference runs instead of reallocating.
type Ctx struct {
	// Workers is the number of goroutines kernels may use. 1 reproduces
	// the paper's single-core evaluation.
	Workers int

	// DisableScratchReuse makes every Scratch call allocate afresh. A
	// runtime session emulating per-call allocation (NoBufferReuse, the
	// torch-sim backend) sets it; kernels never read it.
	DisableScratchReuse bool

	// Gemm is this session's packing context for GEMM-based kernels; it
	// supplies the caller's share of panel scratch on the parallel path.
	Gemm gemm.Context

	// Consts is the constant cache shared by every session of a plan.
	// When nil a private cache is created on first use.
	Consts *ConstCache

	// convSrc is the implicit-GEMM pack source conv.im2col points its
	// Calls at. Kernels within a session run sequentially and GEMM blocks
	// until the call completes, so one reusable value per session keeps
	// the hot path free of allocations (an interface over a fresh struct
	// would heap-allocate every run); its padded planes are pack scratch
	// like convSrc8's quantized ones.
	convSrc convPackSrc

	// convSrcA is the NHWC-tier A-side pack source conv.im2col_nhwc points
	// its Calls at, reusable per session like convSrc.
	convSrcA convPackSrcA

	// convSrc8 is the quantizing pack source of the int8 kernels,
	// reusable per session for the same reason.
	convSrc8 convPackSrc8

	scratch map[ctxKey][]float32

	// ScratchBytes accumulates the bytes handed out by Scratch and newly
	// stored by PutCache. Only tests read it; the memory experiments use
	// the plan's ArenaBytes and ConstBytes.
	ScratchBytes int64
}

// NewCtx returns a context with the given worker count (minimum 1).
func NewCtx(workers int) *Ctx {
	if workers < 1 {
		workers = 1
	}
	return &Ctx{Workers: workers, scratch: make(map[ctxKey][]float32)}
}

// GEMM executes one GEMM call on the process-wide worker pool with a
// budget of c.Workers goroutines, the caller — and its packing context —
// included; a budget of 1 runs the whole call inline.
func (c *Ctx) GEMM(call gemm.Call) {
	gemm.Shared().Run(&c.Gemm, call, c.Workers)
}

// GEMM8 executes one quantized GEMM call with the same worker routing as
// GEMM.
func (c *Ctx) GEMM8(call gemm.CallInt8) {
	gemm.Shared().RunInt8(&c.Gemm, call, c.Workers)
}

// Sweep applies an optional per-channel bias and a fused activation over
// an NCHW tensor laid out as rows×rowLen (rows = batch×channels, bias
// indexed by row%len(bias); bias may be nil), with the same worker routing
// as GEMM. Kernels whose output comes straight from a GEMM should fuse the
// epilogue into the Call instead; Sweep serves the ones that cannot
// (direct, Winograd, spatial-pack) and the explicit im2col comparison
// path.
func (c *Ctx) Sweep(y, bias []float32, rows, rowLen int, act string, alpha float32) {
	gemm.Shared().Sweep(y, bias, rows, rowLen, gemmActivation(act), alpha, c.Workers)
}

func (c *Ctx) consts() *ConstCache {
	if c.Consts == nil {
		c.Consts = NewConstCache()
	}
	return c.Consts
}

// Cache returns the persistent buffer stored for (kind, n), or nil. Unlike
// Scratch buffers, cached buffers keep their contents between calls;
// kernels use them for run-invariant precomputation such as Winograd
// weight transforms and prepacked GEMM weight panels.
func (c *Ctx) Cache(kind string, n *graph.Node) []float32 {
	if c.Consts == nil {
		return nil
	}
	return c.Consts.get(ctxKey{kind, n})
}

// PutCache stores buf persistently for (kind, n). The bytes are charged to
// ScratchBytes only when the entry is new, so sessions sharing a cache do
// not double-count.
func (c *Ctx) PutCache(kind string, n *graph.Node, buf []float32) {
	if c.consts().put(ctxKey{kind, n}, buf) {
		c.ScratchBytes += int64(len(buf)) * 4
	}
}

// CacheInt8 returns the quantized-weight entry stored for (kind, n), or
// nil.
func (c *Ctx) CacheInt8(kind string, n *graph.Node) *Int8Weights {
	if c.Consts == nil {
		return nil
	}
	return c.Consts.getInt8(ctxKey{kind, n})
}

// PutCacheInt8 stores w persistently for (kind, n), charging ScratchBytes
// only for new entries like PutCache.
func (c *Ctx) PutCacheInt8(kind string, n *graph.Node, w *Int8Weights) {
	if c.consts().putInt8(ctxKey{kind, n}, w) {
		c.ScratchBytes += w.Bytes()
	}
}

// Scratch returns a zeroed float32 buffer of length size, reused across
// calls with the same (kind, n) unless DisableScratchReuse is set.
func (c *Ctx) Scratch(kind string, n *graph.Node, size int) []float32 {
	buf := c.scratchBuf(kind, n, size)
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// ScratchUninit is Scratch without the zero-fill, for kernels that write
// every element before reading any (im2col unfolds, Winograd transform
// domains). The contents are whatever the previous use left behind.
func (c *Ctx) ScratchUninit(kind string, n *graph.Node, size int) []float32 {
	return c.scratchBuf(kind, n, size)
}

func (c *Ctx) scratchBuf(kind string, n *graph.Node, size int) []float32 {
	if c.DisableScratchReuse {
		c.ScratchBytes += int64(size) * 4
		return make([]float32, size)
	}
	if c.scratch == nil {
		c.scratch = make(map[ctxKey][]float32)
	}
	key := ctxKey{kind, n}
	buf := c.scratch[key]
	if cap(buf) < size {
		buf = make([]float32, size)
		c.scratch[key] = buf
		c.ScratchBytes += int64(size) * 4
	}
	return buf[:size]
}

// PeakScratchBytes returns the total bytes currently retained by the
// scratch pool.
func (c *Ctx) PeakScratchBytes() int64 {
	var total int64
	for _, b := range c.scratch {
		total += int64(cap(b)) * 4
	}
	return total
}
