package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"orpheus/internal/tensor"
)

// Batcher coalesces concurrent single-sample predict requests over one
// SessionPool into batched Session.Run calls — dynamic batching as a
// library primitive any Go embedder can use, not an HTTP-server internal.
//
// A collector goroutine gathers requests until the batch is full (the
// plan's MaxBatch) or the earliest pending request's deadline expires,
// then hands the batch to a fresh goroutine that borrows a pooled
// session, stages the samples into the session's [n, ...] Staging view,
// runs once, and fans the output rows back out. Collection continues
// while batches execute, and every executing batch holds its own pooled
// session, so batching stacks on top of — not instead of — the session
// pool's request concurrency.
//
// The request lifecycle is context-first:
//
//   - A context cancelled while the request is queued aborts it before it
//     is staged: Submit returns ctx.Err() and the sample never reaches a
//     Session.Run.
//   - Once a batch has claimed the request, completed work is not
//     discarded: Submit delivers the result even if the context expires
//     while the batch executes.
//   - Close drains gracefully: requests already handed to the collector
//     run to completion; later Submits fail with ErrClosed.
type Batcher struct {
	pool     *SessionPool
	perVol   int
	max      int
	defWait  time.Duration
	immed    bool
	maxDepth int           // admission cap on queued requests (0 = unbounded)
	runLimit time.Duration // deadline on each batched Session.Run (0 = none)

	reqs      chan *batchReq
	flushNow  chan struct{}
	stop      chan struct{}
	collected chan struct{}
	batches   sync.WaitGroup
	closeOnce sync.Once
	runs      atomic.Int64

	// Observability counters (see Stats). All are plain atomics so the
	// hot path pays a handful of uncontended adds, never a lock.
	depth          atomic.Int64 // requests submitted but not yet claimed or abandoned
	served         atomic.Int64 // requests claimed into an executed batch
	flushFull      atomic.Int64
	flushDeadline  atomic.Int64
	flushImmediate atomic.Int64
	flushExplicit  atomic.Int64
	flushClose     atomic.Int64
	waitNs         atomic.Int64 // cumulative submit→launch wait of claimed requests
	rejected       atomic.Int64 // requests shed at admission (queue full or closed)
	cancelledReqs  atomic.Int64 // requests abandoned by their context while queued
	waitHist       [WaitBuckets]atomic.Int64
}

// WaitBuckets is the number of fixed buckets in the queued-wait
// histogram: eight bounded latency bands plus one unbounded overflow.
const WaitBuckets = 9

// WaitBucketBounds holds the inclusive upper bounds of the histogram's
// first WaitBuckets-1 buckets; waits above the last bound land in the
// overflow bucket. The bands bracket the default 2ms flush deadline so
// the histogram separates "flushed early by a full batch" from "waited
// out the deadline" from "stuck behind a backlog".
var WaitBucketBounds = [WaitBuckets - 1]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
}

// waitBucket maps a queued wait to its histogram bucket index.
func waitBucket(d time.Duration) int {
	for i, hi := range WaitBucketBounds {
		if d <= hi {
			return i
		}
	}
	return WaitBuckets - 1
}

// BatcherStats is a point-in-time snapshot of a Batcher's counters.
// Flush counts classify every launched batch by what ended its gather:
// the batch filling to MaxBatch, the earliest member deadline expiring,
// immediate-flush mode, an explicit Flush call, or the Close drain.
// QueuedWait accumulates, over all claimed requests, the time from Submit
// to the moment their batch was handed off for execution — divide by
// Requests for the mean queueing latency.
type BatcherStats struct {
	// QueueDepth is the number of requests currently submitted but not
	// yet claimed by an executing batch (or abandoned by cancellation).
	QueueDepth int64
	// Runs is the number of batched Session.Run executions launched.
	Runs int64
	// Requests is the number of requests claimed into executed batches.
	Requests int64
	// FlushFull counts batches launched because they reached MaxBatch.
	FlushFull int64
	// FlushDeadline counts batches flushed by a member's deadline.
	FlushDeadline int64
	// FlushImmediate counts immediate-mode launches.
	FlushImmediate int64
	// FlushExplicit counts batches flushed by an explicit Flush call.
	FlushExplicit int64
	// FlushClose counts batches flushed by the Close drain.
	FlushClose int64
	// QueuedWait is the cumulative submit→launch wait of claimed requests.
	// Rejected and cancelled requests never contribute, so QueuedWait /
	// Requests is an unskewed mean queueing latency even under shedding.
	QueuedWait time.Duration
	// Rejected counts requests shed at admission: the queue-depth cap was
	// hit, or the batcher was already closed. They never occupied a queue
	// slot and are excluded from QueuedWait.
	Rejected int64
	// Cancelled counts requests abandoned by their own context while
	// queued — before any batch claimed them.
	Cancelled int64
	// WaitHistogram buckets every claimed request's submit→launch wait
	// into the fixed latency bands of WaitBucketBounds (the final bucket
	// is the unbounded overflow). Same population as QueuedWait, so the
	// histogram exposes the shape — tail and all — behind that mean.
	WaitHistogram [WaitBuckets]int64
}

// Stats returns a snapshot of the batcher's observability counters. It is
// safe to call concurrently with Submit/Flush/Close; the fields are read
// individually, so a snapshot taken mid-burst may be off by in-flight
// requests.
func (b *Batcher) Stats() BatcherStats {
	var hist [WaitBuckets]int64
	for i := range hist {
		hist[i] = b.waitHist[i].Load()
	}
	return BatcherStats{
		WaitHistogram:  hist,
		QueueDepth:     b.depth.Load(),
		Runs:           b.runs.Load(),
		Requests:       b.served.Load(),
		FlushFull:      b.flushFull.Load(),
		FlushDeadline:  b.flushDeadline.Load(),
		FlushImmediate: b.flushImmediate.Load(),
		FlushExplicit:  b.flushExplicit.Load(),
		FlushClose:     b.flushClose.Load(),
		QueuedWait:     time.Duration(b.waitNs.Load()),
		Rejected:       b.rejected.Load(),
		Cancelled:      b.cancelledReqs.Load(),
	}
}

// EstimateWait predicts how long a request admitted right now would wait
// before its batch launches: the mean historical queueing latency scaled
// by the current queue depth (relative to one batch width), floored at
// the flush deadline. The serve layer turns this into Retry-After for
// shed (429) responses; it is an estimate from live counters, not a
// guarantee.
func (b *Batcher) EstimateWait() time.Duration {
	st := b.Stats()
	if st.Requests == 0 {
		return b.defWait
	}
	mean := st.QueuedWait / time.Duration(st.Requests)
	est := mean
	if batches := (st.QueueDepth + int64(b.max) - 1) / int64(b.max); batches > 1 {
		est = mean * time.Duration(batches)
	}
	if est < b.defWait {
		est = b.defWait
	}
	return est
}

// BatcherOptions configures NewBatcher.
type BatcherOptions struct {
	// FlushDeadline is how long a lone request waits for batch peers
	// before the batcher flushes it through on its own (each Submit may
	// shorten it per request). Zero or negative selects DefaultFlushDeadline.
	FlushDeadline time.Duration

	// Immediate selects immediate-flush mode: every request executes as
	// soon as the collector sees it, batched only with requests that are
	// already queued at that instant. FlushDeadline is ignored.
	Immediate bool

	// QueueDepth caps how many requests may be queued (submitted but not
	// yet claimed by an executing batch) at once. A Submit that would
	// exceed the cap is rejected immediately with ErrOverloaded instead of
	// joining an unbounded pile-up — bounded admission for overload
	// resilience. 0 (the default) leaves the queue unbounded.
	QueueDepth int

	// RunTimeout bounds the execution time of each batched Session.Run
	// (not the queue wait — FlushDeadline and per-request waits govern
	// that). The run is cancelled at the next plan-step boundary when the
	// deadline passes, failing the batch's requests with
	// context.DeadlineExceeded. 0 (the default) leaves runs unbounded.
	RunTimeout time.Duration
}

// DefaultFlushDeadline is the default per-request wait for batch peers.
const DefaultFlushDeadline = 2 * time.Millisecond

// batchReq states: a request is pending until either an executing batch
// claims (stages) it or a cancelled submitter abandons it; the CAS
// decides races between the two.
const (
	reqPending int32 = iota
	reqStaged
	reqAbandoned
)

// batchReq is one request in flight through the batcher. Exactly one of
// input and stage is set: input is a caller-owned sample copied into the
// batch, stage is a callback that writes the sample straight into the
// batch's staging row (the zero-copy path binary requests ride).
type batchReq struct {
	ctx     context.Context
	input   []float32
	stage   func(dst []float32)
	flushBy time.Time
	enq     time.Time // when Submit handed the request to the collector
	state   atomic.Int32
	done    chan batchOutcome
}

// batchOutcome carries one request's result or the batch's error.
type batchOutcome struct {
	res BatchResult
	err error
}

// BatchResult is one request's slice of a batched run.
type BatchResult struct {
	// Output holds one sample's output values (private to the request).
	Output []float32
	// Shape is the single-sample output shape.
	Shape []int
	// BatchSize reports how many requests shared the Session.Run that
	// produced this output.
	BatchSize int
}

// NewBatcher builds a dynamic batcher over the pool's plan. The plan must
// have exactly one input and one output (the flat-sample staging contract;
// multi-I/O graphs run through Session.Run directly) and is used at its
// compiled MaxBatch.
func NewBatcher(pool *SessionPool, opts BatcherOptions) (*Batcher, error) {
	ins, outs := pool.Plan().InputDescs(), pool.Plan().OutputDescs()
	if len(ins) != 1 || len(outs) != 1 {
		return nil, fmt.Errorf("runtime: batcher on %d inputs and %d outputs: %w", len(ins), len(outs), ErrMultiIO)
	}
	if opts.FlushDeadline <= 0 {
		opts.FlushDeadline = DefaultFlushDeadline
	}
	b := &Batcher{
		pool:      pool,
		perVol:    tensor.Volume(ins[0].Shape),
		max:       pool.Plan().MaxBatch(),
		defWait:   opts.FlushDeadline,
		immed:     opts.Immediate,
		maxDepth:  opts.QueueDepth,
		runLimit:  opts.RunTimeout,
		reqs:      make(chan *batchReq),
		flushNow:  make(chan struct{}, 1),
		stop:      make(chan struct{}),
		collected: make(chan struct{}),
	}
	go b.collect()
	return b, nil
}

// Submit enqueues one flat row-major sample (exactly the plan's
// single-sample input volume) and blocks until its outcome. wait caps how
// long the request lingers waiting for batch peers (≤ 0 means the
// batcher's FlushDeadline); ctx cancellation aborts the request while it
// is queued, but a request already claimed by an executing batch delivers
// its completed result regardless.
func (b *Batcher) Submit(ctx context.Context, sample []float32, wait time.Duration) (BatchResult, error) {
	if len(sample) != b.perVol {
		return BatchResult{}, fmt.Errorf("runtime: batcher sample has %d values, plan input wants %d: %w",
			len(sample), b.perVol, ErrShapeMismatch)
	}
	return b.submit(ctx, sample, nil, wait)
}

// SubmitStaged is Submit for callers that materialise the sample straight
// into the batch — the zero-copy staging hook the binary wire protocol
// rides. Instead of handing over a []float32 (which the batch would copy
// into its staging tensor), the caller hands a stage callback; if the
// request is claimed by a batch, stage is called exactly once, on the
// executing batch's goroutine, with the request's staging row as dst
// (exactly one sample's values: the volume of the plan's input
// shape), and must fill all of it. A request
// cancelled while queued never has stage called. Any buffers stage reads
// from must stay valid until SubmitStaged returns.
func (b *Batcher) SubmitStaged(ctx context.Context, stage func(dst []float32), wait time.Duration) (BatchResult, error) {
	if stage == nil {
		return BatchResult{}, fmt.Errorf("runtime: batcher: nil stage callback: %w", ErrShapeMismatch)
	}
	return b.submit(ctx, nil, stage, wait)
}

// submit is the shared enqueue path behind Submit and SubmitStaged.
func (b *Batcher) submit(ctx context.Context, sample []float32, stage func(dst []float32), wait time.Duration) (BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if wait <= 0 {
		wait = b.defWait
	}
	now := time.Now()
	r := &batchReq{
		ctx:     ctx,
		input:   sample,
		stage:   stage,
		flushBy: now.Add(wait),
		enq:     now,
		done:    make(chan batchOutcome, 1),
	}
	// Bounded admission: the queue-depth gauge is bumped optimistically
	// and rolled back when over the cap, so concurrent Submits can never
	// all squeeze past a nearly-full queue. Shed requests fail fast with
	// the typed ErrOverloaded — the caller (or the HTTP layer above it)
	// backs off instead of piling onto a saturated model.
	d := b.depth.Add(1)
	if b.maxDepth > 0 && d > int64(b.maxDepth) {
		b.depth.Add(-1)
		b.rejected.Add(1)
		return BatchResult{}, fmt.Errorf("runtime: batcher queue full (%d queued, cap %d): %w", d-1, b.maxDepth, ErrOverloaded)
	}
	select {
	case b.reqs <- r:
	case <-b.stop:
		b.depth.Add(-1)
		b.rejected.Add(1)
		return BatchResult{}, fmt.Errorf("runtime: batcher: %w", ErrClosed)
	case <-ctx.Done():
		b.depth.Add(-1)
		b.cancelledReqs.Add(1)
		return BatchResult{}, ctx.Err()
	}
	select {
	case o := <-r.done:
		return o.res, o.err
	case <-ctx.Done():
		// Queued requests abandon cleanly; the CAS loses only against a
		// batch that already claimed the request, and claimed work is
		// delivered, not discarded. Whichever side wins the CAS owns the
		// queue-depth decrement, so every request leaves the gauge once.
		if r.state.CompareAndSwap(reqPending, reqAbandoned) {
			b.depth.Add(-1)
			b.cancelledReqs.Add(1)
			return BatchResult{}, ctx.Err()
		}
		o := <-r.done
		return o.res, o.err
	}
}

// Flush asks the collector to execute whatever is queued right now
// instead of waiting out the flush deadline. When nothing is gathering,
// the signal applies to the next batch. Flush never blocks.
func (b *Batcher) Flush() {
	select {
	case b.flushNow <- struct{}{}:
	default:
	}
}

// Close stops the batcher and drains it: requests already handed to the
// collector execute to completion, queued-but-unreceived and future
// Submits fail with ErrClosed, and Close returns only after every
// in-flight batch has delivered its results. Safe to call more than once
// and from multiple goroutines.
func (b *Batcher) Close() {
	b.closeOnce.Do(func() { close(b.stop) })
	<-b.collected
	b.batches.Wait()
}

// collect is the batching loop: one batch at a time is gathered, then
// executed asynchronously while the next gathers.
func (b *Batcher) collect() {
	defer close(b.collected)
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	for {
		var first *batchReq
		select {
		case first = <-b.reqs:
		case <-b.stop:
			return
		}
		batch := append(make([]*batchReq, 0, b.max), first)
		if b.immed {
			// Immediate mode: batch only what is already queued, without
			// waiting for anyone.
		drain:
			for len(batch) < b.max {
				select {
				case r := <-b.reqs:
					batch = append(batch, r)
				default:
					break drain
				}
			}
			b.flushImmediate.Add(1)
		} else {
			cause := &b.flushFull // reached only by filling to b.max
			flushBy := first.flushBy
			timer.Reset(time.Until(flushBy))
		gather:
			for len(batch) < b.max {
				select {
				case r := <-b.reqs:
					batch = append(batch, r)
					// The batch flushes at the earliest deadline any member
					// carries, so one impatient request caps everyone's wait.
					if r.flushBy.Before(flushBy) {
						flushBy = r.flushBy
						timer.Reset(time.Until(flushBy))
					}
				case <-timer.C:
					cause = &b.flushDeadline
					break gather
				case <-b.flushNow:
					cause = &b.flushExplicit
					break gather
				case <-b.stop:
					// Graceful drain: run what is already gathered.
					stopTimer(timer)
					b.flushClose.Add(1)
					b.launch(batch)
					return
				}
			}
			stopTimer(timer)
			cause.Add(1)
		}
		b.launch(batch)
	}
}

// stopTimer stops t and clears any pending expiry, leaving it ready for
// Reset.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// launch hands a gathered batch to its own goroutine, tracked so Close
// can wait for in-flight work.
func (b *Batcher) launch(batch []*batchReq) {
	b.batches.Add(1)
	go func() {
		defer b.batches.Done()
		b.runBatch(batch)
	}()
}

// runBatch claims the batch's live requests, stages them into a pooled
// session's Staging(n) view, executes them as one RunOne and fans results
// out. Only the per-request output rows (and their shared shape) are
// allocated per batch: they outlive the session borrow.
func (b *Batcher) runBatch(batch []*batchReq) {
	// Claim phase: requests cancelled while queued are dropped before
	// staging, so their plans never run. A successful claim owns the
	// queue-depth decrement (abandoners decrement on their own CAS win).
	launched := time.Now()
	claimed := batch[:0]
	for _, r := range batch {
		if r.ctx.Err() == nil && r.state.CompareAndSwap(reqPending, reqStaged) {
			claimed = append(claimed, r)
			b.depth.Add(-1)
			w := launched.Sub(r.enq)
			b.waitNs.Add(int64(w))
			b.waitHist[waitBucket(w)].Add(1)
		}
	}
	n := len(claimed)
	if n == 0 {
		return
	}
	b.runs.Add(1)
	b.served.Add(int64(n))
	sess := b.pool.Get()
	in := sess.Staging(n)
	staging := in.Data()
	for i, r := range claimed {
		row := staging[i*b.perVol : (i+1)*b.perVol]
		if r.stage != nil {
			r.stage(row)
		} else {
			copy(row, r.input)
		}
	}

	// The batch runs detached from any single caller's context: it serves
	// every claimed request, and one caller's deadline must not discard
	// peers' work. RunTimeout is the batch-level bound — an execution
	// deadline covering the run itself, enforced at step boundaries.
	runCtx := context.Background()
	if b.runLimit > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, b.runLimit)
		defer cancel()
	}
	out, err := sess.RunOne(runCtx, in)
	if err == nil && (out.Rank() == 0 || out.Dim(0)%n != 0) {
		err = fmt.Errorf("runtime: batcher output %v does not split across batch %d: %w", out.Shape(), n, ErrShapeMismatch)
	}
	if err != nil {
		b.pool.Put(sess)
		for _, r := range claimed {
			r.done <- batchOutcome{err: err}
		}
		return
	}
	rowVol := out.Size() / n
	rowShape := append([]int(nil), out.Shape()...)
	rowShape[0] /= n
	od := out.Data()
	for i, r := range claimed {
		row := make([]float32, rowVol)
		copy(row, od[i*rowVol:(i+1)*rowVol])
		r.done <- batchOutcome{res: BatchResult{Output: row, Shape: rowShape, BatchSize: n}}
	}
	// The rows are copied out above, so the session (whose arena the
	// output aliases) can go back to the pool only now.
	b.pool.Put(sess)
}
