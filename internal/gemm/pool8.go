package gemm

import (
	"sync"
	"sync/atomic"
)

// Pooled execution of quantized GEMMs. task8 mirrors task: the call is
// split into the (image, column block, M-tile group) units of blocking8,
// claimed from a shared counter, and each claimed unit runs runUnit8 —
// full-K accumulation into the worker's own int32 scratch followed by the
// requantize store — so caller- and helper-executed units finish
// identically and no two units touch the same C element.
type task8 struct {
	call    CallInt8
	kern    *kernel8
	nc, gm  int // column block width and group height from blocking8
	next    atomic.Int64
	wg      sync.WaitGroup
	failure panicSlot
}

// finish implements poolWork.
func (t *task8) finish() { t.wg.Done() }

// fail implements poolWork.
func (t *task8) fail(r any) { t.failure.set(r) }

// drain implements poolWork: claim and execute units until the grid is
// exhausted.
func (t *task8) drain(ctx *Context) {
	c := &t.call
	tn := (c.N + t.nc - 1) / t.nc
	grid := (c.M + t.gm - 1) / t.gm * tn
	units := int64(grid) * int64(c.images())
	for {
		i := t.next.Add(1) - 1
		if i >= units {
			return
		}
		idx := int(i)
		img := idx / grid
		idx %= grid
		ii := (idx / tn) * t.gm
		jj := (idx % tn) * t.nc
		ctx.runUnit8(t.kern, c, img, ii, min(ii+t.gm, c.M), jj, min(t.nc, c.N-jj))
	}
}

var task8Pool = sync.Pool{New: func() any { return new(task8) }}

// RunInt8 executes the quantized call using up to workers goroutines, the
// caller included, with the same recruitment and panic-containment rules
// as Run. ctx supplies the caller's packing and accumulator scratch.
func (p *Pool) RunInt8(ctx *Context, c CallInt8, workers int) {
	c.validate()
	if c.M == 0 || c.N == 0 {
		return
	}
	nc, gm := blocking8(c.M, c.N, c.images(), workers)
	if units := (c.M + gm - 1) / gm * ((c.N + nc - 1) / nc) * c.images(); workers > units {
		workers = units
	}
	if workers <= 1 {
		ctx.RunInt8(c)
		return
	}
	t := task8Pool.Get().(*task8)
	t.call = c
	t.kern = activeKernel8()
	t.nc, t.gm = nc, gm
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
	t.call = CallInt8{}
	t.kern = nil
	task8Pool.Put(t)
	if r != nil {
		// Re-raise on the submitting goroutine, like Run.
		panic(r)
	}
}
