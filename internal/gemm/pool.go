package gemm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent set of GEMM worker goroutines. The seed spawned a
// fresh goroutine per row split on every Parallel call; a Pool instead
// parks its workers on a channel for the life of the process and splits
// each GEMM into macro-tiles (mcBlock×ncBlock blocks of C) that the
// submitting goroutine and any idle workers claim from a shared atomic
// counter until the grid is drained. Submitting costs a few atomic
// operations, never a goroutine spawn, and tiling over both dimensions of
// C means small-M convolution GEMMs (few output channels, many pixels)
// still fan out across cores.
//
// Each worker owns a private packing Context, so panel scratch is reused
// across every GEMM the worker ever touches. A Pool may serve concurrent
// Run calls from many sessions; tasks are independent.
//
// Besides GEMMs the pool also executes row sweeps (Sweep): flat
// bias+activation passes over an output tensor, claimed from the same
// shared-counter grid, so kernels that cannot fuse their epilogue into a
// GEMM still spread the sweep across cores without spawning goroutines.
type Pool struct {
	workers int
	tasks   chan poolWork
}

// poolWork is one unit a pool worker executes: a tiled GEMM task or a row
// sweep. drain claims and runs work shares until exhausted; finish signals
// the submitter that this helper is done; fail records a panic recovered
// while draining so the submitter can re-raise it on its own goroutine.
type poolWork interface {
	drain(ctx *Context)
	finish()
	fail(r any)
}

// drainRecover runs one share of w behind the pool's panic barrier: a
// panicking kernel tile is recorded on the task (first panic wins) instead
// of unwinding the goroutine. Workers survive poisoned tasks, and the
// submitter re-raises the panic after every helper has checked in, so the
// fault surfaces exactly once, on the goroutine that owns the request.
func drainRecover(w poolWork, ctx *Context) {
	defer func() {
		if r := recover(); r != nil {
			w.fail(r)
		}
	}()
	w.drain(ctx)
}

// task is one tiled GEMM in flight. Tiles are claimed via next; wg tracks
// the helpers that received the task so Run can return only when every
// claimed tile has been written. kern is the micro-kernel resolved at
// submission, so every tile of one call — caller- and helper-executed —
// packs and computes with the same geometry.
type task struct {
	call         Call
	kern         *kernel
	tileM, tileN int
	next         atomic.Int64
	wg           sync.WaitGroup
	failure      panicSlot
}

// finish implements poolWork.
func (t *task) finish() { t.wg.Done() }

// fail implements poolWork.
func (t *task) fail(r any) { t.failure.set(r) }

// panicSlot stores the first panic recovered across a task's helpers.
// set is called only on the (cold) panic path; take is called by the
// submitter after wg.Wait, which orders it after every set.
type panicSlot struct {
	mu sync.Mutex
	r  any
}

func (s *panicSlot) set(r any) {
	s.mu.Lock()
	if s.r == nil {
		s.r = r
	}
	s.mu.Unlock()
}

// take returns and clears the stored panic.
func (s *panicSlot) take() any {
	r := s.r
	s.r = nil
	return r
}

var taskPool = sync.Pool{New: func() any { return new(task) }}

// NewPool starts a pool with the given number of persistent workers
// (minimum 1). Workers park on an unbuffered channel when idle.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, tasks: make(chan poolWork)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	var ctx Context
	for w := range p.tasks {
		drainRecover(w, &ctx)
		w.finish()
	}
}

// Workers returns the number of persistent worker goroutines.
func (p *Pool) Workers() int { return p.workers }

// Close terminates the pool's workers. No Run may be in flight or issued
// afterwards; the shared pool is never closed.
func (p *Pool) Close() { close(p.tasks) }

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, sized to GOMAXPROCS and created on
// first use. Sessions without a dedicated pool draw their GEMM parallelism
// from here, so the total worker-thread count stays bounded no matter how
// many sessions serve traffic.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPool(runtime.GOMAXPROCS(0)) })
	return sharedPool
}

// Run executes c using up to workers goroutines, the caller included. The
// caller always participates (so progress never depends on pool
// availability) and ctx supplies its packing scratch; helpers are
// recruited only from workers idle at submission time. Run returns when C
// is fully written.
//
// Batched calls (c.Batch > 1) tile across batch×tile: every (image,
// macro-tile) pair is an independent unit of work claimed from the shared
// counter, so small per-image GEMMs still fan out across cores when the
// batch is deep.
func (p *Pool) Run(ctx *Context, c Call, workers int) {
	c.validate()
	if c.M == 0 || c.N == 0 {
		return
	}
	if c.K == 0 {
		if c.Store {
			for img := 0; img < c.images(); img++ {
				zeroCWindow(c.C[img*c.StrideC:], c.M, c.N, c.ldc())
				if c.hasEpilogue() {
					c.applyEpilogueAll(c.C[img*c.StrideC:])
				}
			}
		}
		return
	}
	kern := activeKernel()
	tm := (c.M + kern.mc - 1) / kern.mc
	tn := (c.N + kern.nc - 1) / kern.nc
	tiles := tm * tn * c.images()
	if workers > tiles {
		workers = tiles
	}
	if workers <= 1 {
		ctx.Run(c)
		return
	}
	t := taskPool.Get().(*task)
	t.call = c
	t.kern = kern
	t.tileM, t.tileN = tm, tn
	t.next.Store(0)
	helpers := workers - 1
	if helpers > p.workers {
		helpers = p.workers
	}
	for i := 0; i < helpers; i++ {
		t.wg.Add(1)
		select {
		case p.tasks <- t:
		default:
			// No worker idle right now; the caller keeps this share.
			t.wg.Done()
		}
	}
	drainRecover(t, ctx)
	t.wg.Wait()
	r := t.failure.take()
	t.call = Call{}
	t.kern = nil
	taskPool.Put(t)
	if r != nil {
		// Re-raise on the submitting goroutine: the runtime's step barrier
		// converts it to a typed error and quarantines the session.
		panic(r)
	}
}

// sweepTask is one parallel row sweep in flight: rows×rowLen elements of
// data get bias[row%len(bias)] added (when bias is non-nil) and act
// applied, with chunks of rows claimed from the shared counter. It backs
// Pool.Sweep for kernels whose epilogue cannot fuse into a GEMM tile
// store (direct, Winograd and depthwise convolution activations).
type sweepTask struct {
	data, bias   []float32
	rows, rowLen int
	chunk        int // rows per claimed share
	act          Activation
	alpha        float32
	next         atomic.Int64
	wg           sync.WaitGroup
	failure      panicSlot
}

// fail implements poolWork.
func (t *sweepTask) fail(r any) { t.failure.set(r) }

var sweepPool = sync.Pool{New: func() any { return new(sweepTask) }}

// drain implements poolWork: claim row chunks until the sweep is done.
func (t *sweepTask) drain(ctx *Context) {
	chunks := int64((t.rows + t.chunk - 1) / t.chunk)
	for {
		i := t.next.Add(1) - 1
		if i >= chunks {
			return
		}
		lo := int(i) * t.chunk
		hi := min(lo+t.chunk, t.rows)
		sweepRows(t.data, t.bias, lo, hi, t.rowLen, t.act, t.alpha)
	}
}

// finish implements poolWork.
func (t *sweepTask) finish() { t.wg.Done() }

// SweepRows is the serial form of Pool.Sweep: row r of the rows×rowLen
// region gets bias[r%len(bias)] added (bias may be nil) and act applied.
func SweepRows(data, bias []float32, rows, rowLen int, act Activation, alpha float32) {
	sweepRows(data, bias, 0, rows, rowLen, act, alpha)
}

// sweepRows applies the bias+activation pass to rows [lo, hi).
func sweepRows(data, bias []float32, lo, hi, rowLen int, act Activation, alpha float32) {
	for r := lo; r < hi; r++ {
		row := data[r*rowLen : (r+1)*rowLen]
		var bv float32
		if bias != nil {
			bv = bias[r%len(bias)]
		}
		if bv != 0 {
			biasActivateRow(row, row, bv, act, alpha)
		} else if act != ActNone {
			ActivateRow(row, row, act, alpha)
		}
	}
}

// Sweep applies a fused bias-add and activation over a rows×rowLen
// row-major region of data, in parallel across the pool: row r gets
// bias[r%len(bias)] added to every element (bias may be nil for an
// activation-only sweep), then act applied. This is the epilogue shape of
// an NCHW tensor — rows are (batch, channel) planes, len(bias) the
// channel count. The caller participates like Run; workers <= 1 (or a
// small sweep) runs inline. No goroutines are spawned and nothing
// allocates on the steady-state path.
func (p *Pool) Sweep(data, bias []float32, rows, rowLen int, act Activation, alpha float32, workers int) {
	if rows <= 0 || rowLen <= 0 || (bias == nil && act == ActNone) {
		return
	}
	// Claim enough rows per share to amortise the atomic (≥ ~4096
	// elements) and cap helper count at the chunk count.
	chunk := 1
	if rowLen < 4096 {
		chunk = (4096 + rowLen - 1) / rowLen
	}
	chunks := (rows + chunk - 1) / chunk
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		sweepRows(data, bias, 0, rows, rowLen, act, alpha)
		return
	}
	t := sweepPool.Get().(*sweepTask)
	t.data, t.bias = data, bias
	t.rows, t.rowLen, t.chunk = rows, rowLen, chunk
	t.act, t.alpha = act, alpha
	t.next.Store(0)
	helpers := workers - 1
	if helpers > p.workers {
		helpers = p.workers
	}
	for i := 0; i < helpers; i++ {
		t.wg.Add(1)
		select {
		case p.tasks <- t:
		default:
			// No worker idle right now; the caller keeps this share.
			t.wg.Done()
		}
	}
	drainRecover(t, nil)
	t.wg.Wait()
	r := t.failure.take()
	t.data, t.bias = nil, nil
	sweepPool.Put(t)
	if r != nil {
		panic(r)
	}
}

// drain claims and executes tiles until the grid is exhausted.
func (t *task) drain(ctx *Context) {
	tiles := int64(t.tileM) * int64(t.tileN) * int64(t.call.images())
	for {
		i := t.next.Add(1) - 1
		if i >= tiles {
			return
		}
		t.runTile(ctx, int(i))
	}
}

// runTile computes one mc×nc macro block of one image's C across the
// full K extent. Tiles split C on micro-tile boundaries, so no two tiles
// touch the same element; batched calls lay images out as consecutive
// tile grids over their strided B/C windows. The task's call carries any
// BPack/APack source and epilogue, so caller- and worker-executed tiles
// pack and finish identically.
func (t *task) runTile(ctx *Context, idx int) {
	c := &t.call
	kern := t.kern
	grid := t.tileM * t.tileN
	img := idx / grid
	idx %= grid
	var cb []float32
	if c.BPack == nil && c.APack == nil && c.B != nil {
		cb = c.B[img*c.StrideB:]
	} else {
		cb = c.B // shared weights (APack batches) or unused (BPack/PackedB)
	}
	cc := c.C[img*c.StrideC:]
	ldc := c.ldc()
	ii := (idx / t.tileN) * kern.mc
	jj := (idx % t.tileN) * kern.nc
	mc := min(kern.mc, c.M-ii)
	nc := min(kern.nc, c.N-jj)
	pm := roundUp(c.M, kern.mr)
	pn := roundUp(c.N, kern.nr)
	for pp := 0; pp < c.K; pp += kcBlock {
		kc := min(kcBlock, c.K-pp)
		var epi *Call
		if pp+kc == c.K && c.hasEpilogue() {
			epi = c
		}
		var pa, pb []float32
		switch {
		case c.APack != nil:
			ctx.growA()
			c.APack.PackPanelA(ctx.packA, img, ii, pp, mc, kc, kern.mr)
			pa = ctx.packA
		case c.PackedA != nil:
			pa = c.PackedA[pm*pp+ii*kc:]
		default:
			ctx.growA()
			packA(ctx.packA, c.A, ii, pp, mc, kc, c.K, kern.mr)
			pa = ctx.packA
		}
		switch {
		case c.BPack != nil:
			ctx.growB()
			c.BPack.PackPanel(ctx.packB, img, pp, jj, kc, nc, kern.nr)
			pb = ctx.packB
		case c.PackedB != nil:
			pb = c.PackedB[pn*pp+jj*kc:]
		default:
			ctx.growB()
			packB(ctx.packB, cb, pp, jj, kc, nc, c.N, kern.nr)
			pb = ctx.packB
		}
		ctx.macroKernel(kern, pa, pb, cc, ii, jj, mc, nc, kc, ldc, c.Store && pp == 0)
		if epi != nil {
			epi.applyEpilogueTile(cc, ii, jj, mc, nc, ldc)
		}
	}
}
