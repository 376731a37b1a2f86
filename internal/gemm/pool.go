package gemm

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Units of work and the pool that claims them.
//
// Every call the package executes — an fp32 GEMM, an int8 GEMM, a row
// sweep — is cut by its plan into independent units that write disjoint
// outputs, and executed by running the units: in order on the calling
// goroutine (Context.Run, Context.RunInt8, a Pool entry point with
// workers ≤ 1), or claimed one at a time from a shared counter by the
// caller and whichever pool workers are idle (Pool.submit). Both run the
// same runUnit over units cut by the same plan, and an output element is
// computed the same way whatever the cut, so a result does not depend on
// the worker count.

// unitWork is what a kind of work supplies. plan validates the work and
// cuts it for up to workers goroutines, returning the number of units;
// runUnit executes unit i of those on ctx's scratch.
type unitWork interface {
	plan(workers int) int
	runUnit(ctx *Context, i int)
}

// unitGrid is the cut of a GEMM into units: each image's m×n C in column
// blocks of nc columns and row groups of gm rows, one unit per (image,
// column block, row group). A unit packs each of its B panels once and
// reuses it across the group's M-tiles.
type unitGrid struct {
	m, n, images int
	nc, gm       int
}

// ncMin is the narrowest column block, a multiple of every kernel's nr.
const ncMin = 64

// accCap bounds the rows × columns of one unit, and with it the unit
// accumulator a Context grows to: twice an mcBlock×ncBlock tile. Taller
// row groups narrow their column block to stay within it, so a group is
// at most accCap/ncMin rows.
const accCap = 2 * mcBlock * ncBlock

// blocking cuts an m×n call over images into units for up to workers
// goroutines; mc is the M-tile height. M is cut into the fewest groups
// accCap allows at the narrowest column block — one worker packs every
// panel exactly once — and into more only while the units leave workers
// without one, down to single M-tiles. The column block is the widest that
// fits accCap at the chosen height.
func blocking(m, n, images, workers, mc int) unitGrid {
	tm := ceilDiv(m, mc)
	for groups := ceilDiv(tm, accCap/(mc*ncMin)); ; groups++ {
		gt := ceilDiv(tm, groups)
		g := unitGrid{m: m, n: n, images: images, gm: gt * mc,
			nc: min(ncBlock, accCap/(gt*mc)&^(ncMin-1))}
		if gt == 1 || g.units() >= workers {
			return g
		}
	}
}

// units returns the number of units in the grid.
func (g *unitGrid) units() int {
	return g.images * ceilDiv(g.n, g.nc) * ceilDiv(g.m, g.gm)
}

// unit decodes unit i: image, rows [i0, i1) and nc columns from jj. Units
// are ordered image → column block → row group, so a serial walk finishes
// one column block of C before it packs the next one's panels.
func (g *unitGrid) unit(i int) (img, i0, i1, jj, nc int) {
	groups := ceilDiv(g.m, g.gm)
	perImage := groups * ceilDiv(g.n, g.nc)
	img, i = i/perImage, i%perImage
	i0 = i % groups * g.gm
	jj = i / groups * g.nc
	return img, i0, min(i0+g.gm, g.m), jj, min(g.nc, g.n-jj)
}

// Pool is a persistent set of worker goroutines parked on a channel for
// the life of the process. A submitted call costs a few atomic operations,
// never a goroutine spawn; the submitting goroutine always takes part, so
// progress never depends on a worker being free. Each worker owns a
// private packing Context, so panel scratch is reused across every call
// the worker ever touches. A Pool may serve concurrent calls from many
// sessions; jobs are independent.
type Pool struct {
	workers int
	tasks   chan *job
}

// job is one pooled call in flight: the work, its unit counter, the
// helpers that were handed it and the first panic any of them recovered.
// The work lives in the caller's Context (a GEMM) or in the job (a sweep),
// so that submitting allocates nothing.
type job struct {
	work  unitWork
	units int64
	next  atomic.Int64
	wg    sync.WaitGroup

	mu       sync.Mutex
	panicked any

	sweep sweepWork
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// drain claims and runs units until none are left, behind the pool's panic
// barrier: a panicking unit is recorded on the job (first panic wins)
// instead of unwinding the goroutine. Workers survive poisoned jobs, and
// submit re-raises the panic after every helper has checked in, so the
// fault surfaces exactly once, on the goroutine that owns the request.
func (j *job) drain(ctx *Context) {
	defer func() {
		if r := recover(); r != nil {
			j.mu.Lock()
			if j.panicked == nil {
				j.panicked = r
			}
			j.mu.Unlock()
		}
	}()
	for {
		i := j.next.Add(1) - 1
		if i >= j.units {
			return
		}
		j.work.runUnit(ctx, int(i))
	}
}

// submit plans w — a payload of j — for up to workers goroutines, the
// caller included, and returns when every unit has run. Helpers are
// recruited only from pool workers idle right now; ctx is the caller's
// scratch.
func (p *Pool) submit(ctx *Context, j *job, w unitWork, workers int) {
	units := w.plan(workers)
	j.work, j.units = w, int64(units)
	j.next.Store(0)
	for h := min(workers, units, p.workers+1) - 1; h > 0; h-- {
		j.wg.Add(1)
		select {
		case p.tasks <- j:
		default:
			// No worker idle right now; the caller keeps this share.
			j.wg.Done()
		}
	}
	j.drain(ctx)
	j.wg.Wait() // orders every helper's writes, j.panicked included, before here
	r := j.panicked
	j.work, j.panicked, j.sweep = nil, nil, sweepWork{}
	jobs.Put(j)
	if r != nil {
		// The runtime's step barrier converts it to a typed error and
		// quarantines the session.
		panic(r)
	}
}

// NewPool starts a pool with the given number of persistent workers
// (minimum 1). Workers park on an unbuffered channel when idle.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, tasks: make(chan *job)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	var ctx Context
	for j := range p.tasks {
		j.drain(&ctx)
		j.wg.Done()
	}
}

// Workers returns the number of persistent worker goroutines.
func (p *Pool) Workers() int { return p.workers }

// Close terminates the pool's workers. No call may be in flight or issued
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

// Run executes c using up to workers goroutines, the caller included, and
// returns when C is fully written; ctx supplies the caller's packing
// scratch. Units of every image of a batched call are claimed from one
// counter, so small per-image GEMMs still fan out across cores when the
// batch is deep. A panic in any unit is re-raised here.
func (p *Pool) Run(ctx *Context, c Call, workers int) {
	ctx.call = c
	ctx.gemm = work[float32, float32, float32]{call: &ctx.call, reg: fp32Kernels}
	p.run(ctx, &ctx.gemm, workers)
	ctx.call, ctx.gemm.fin = Call{}, epi{}
}

// run executes w, a payload held by ctx: in order on the caller alone when
// workers ≤ 1, else through submit.
func (p *Pool) run(ctx *Context, w unitWork, workers int) {
	if workers <= 1 {
		for i, n := 0, w.plan(1); i < n; i++ {
			w.runUnit(ctx, i)
		}
		return
	}
	p.submit(ctx, jobs.Get().(*job), w, workers)
}

// sweepWork is one row sweep: rows×rowLen elements of data get
// bias[row%len(bias)] added (when bias is non-nil) and act applied, a
// chunk of rows per unit. It backs Pool.Sweep for kernels whose epilogue
// cannot fuse into a GEMM tile store (direct, Winograd and spatial-pack
// convolution activations).
type sweepWork struct {
	data, bias   []float32
	rows, rowLen int
	chunk        int // rows per unit
	act          Activation
	alpha        float32
}

// plan implements unitWork: enough rows per unit to amortise the claim
// (≥ ~4096 elements).
func (w *sweepWork) plan(int) int {
	if w.rows <= 0 || w.rowLen <= 0 || (w.bias == nil && w.act == ActNone) {
		return 0
	}
	w.chunk = ceilDiv(4096, w.rowLen)
	return ceilDiv(w.rows, w.chunk)
}

// runUnit implements unitWork.
func (w *sweepWork) runUnit(_ *Context, i int) {
	for r := i * w.chunk; r < min((i+1)*w.chunk, w.rows); r++ {
		row := w.data[r*w.rowLen : (r+1)*w.rowLen]
		var bv float32
		if w.bias != nil {
			bv = w.bias[r%len(w.bias)]
		}
		if bv != 0 {
			biasActivateRow(row, row, bv, w.act, w.alpha)
		} else if w.act != ActNone {
			ActivateRow(row, row, w.act, w.alpha)
		}
	}
}

// Sweep applies a fused bias-add and activation over a rows×rowLen
// row-major region of data using up to workers goroutines, the caller
// included: row r gets bias[r%len(bias)] added to every element (bias may
// be nil for an activation-only sweep), then act applied. This is the
// epilogue shape of an NCHW tensor — rows are (batch, channel) planes,
// len(bias) the channel count. No goroutines are spawned and nothing
// allocates on the steady-state path.
func (p *Pool) Sweep(data, bias []float32, rows, rowLen int, act Activation, alpha float32, workers int) {
	w := sweepWork{data: data, bias: bias, rows: rows, rowLen: rowLen, act: act, alpha: alpha}
	if workers <= 1 {
		for i, n := 0, w.plan(1); i < n; i++ {
			w.runUnit(nil, i)
		}
		return
	}
	j := jobs.Get().(*job)
	j.sweep = w
	p.submit(nil, j, &j.sweep, workers)
}
