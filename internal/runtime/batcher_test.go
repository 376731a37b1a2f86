package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/tensor"
)

// slowKernel delays a wrapped kernel so tests can observe a plan that is
// still executing when deadlines expire.
type slowKernel struct {
	ops.Kernel
	delay time.Duration
}

func (k slowKernel) Run(ctx *ops.Ctx, n *graph.Node, in, out []*tensor.Tensor) error {
	time.Sleep(k.delay)
	return k.Kernel.Run(ctx, n, in, out)
}

// slowPolicy wraps every selected kernel in a slowKernel.
type slowPolicy struct{ delay time.Duration }

func (p slowPolicy) Name() string { return "test-slow" }
func (p slowPolicy) Select(n *graph.Node) (ops.Kernel, error) {
	k, err := ReferencePolicy{}.Select(n)
	if err != nil {
		return nil, err
	}
	return slowKernel{Kernel: k, delay: p.delay}, nil
}

// newTestBatcher compiles smallCNN at the given MaxBatch and wraps a pool
// and batcher around it.
func newTestBatcher(t *testing.T, maxBatch int, opts BatcherOptions, policy Policy) (*Batcher, *SessionPool) {
	t.Helper()
	plan, err := Compile(smallCNN(t), Options{MaxBatch: maxBatch, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool(plan)
	b, err := NewBatcher(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b, pool
}

// sampleFor builds a deterministic input sample.
func sampleFor(seed int) []float32 {
	s := make([]float32, 3*8*8)
	for i := range s {
		s[i] = 0.01 * float32((i*(seed+3))%17)
	}
	return s
}

// referenceRow runs one sample through the pool directly (batch 1).
func referenceRow(t *testing.T, pool *SessionPool, sample []float32) []float32 {
	t.Helper()
	in := tensor.FromSlice(append([]float32(nil), sample...), 1, 3, 8, 8)
	outs, err := pool.Run(context.Background(), map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range outs {
		return v.Data()
	}
	t.Fatal("no output")
	return nil
}

func TestBatcherServesAndMatchesReference(t *testing.T) {
	b, pool := newTestBatcher(t, 4, BatcherOptions{FlushDeadline: 2 * time.Millisecond}, nil)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sample := sampleFor(c % 3)
			res, err := b.Submit(context.Background(), sample, 0)
			if err != nil {
				errs[c] = err
				return
			}
			if res.BatchSize < 1 || res.BatchSize > 4 {
				errs[c] = fmt.Errorf("batch size %d outside 1..4", res.BatchSize)
				return
			}
			want := referenceRow(t, pool, sample)
			for i := range res.Output {
				if res.Output[i] != want[i] {
					errs[c] = fmt.Errorf("output[%d] = %v, want %v", i, res.Output[i], want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	if b.Stats().Runs < 1 {
		t.Error("batcher reports no runs after serving requests")
	}
}

// TestBatcherCancelWhileQueuedSkipsPlan asserts the core lifecycle
// guarantee: a context cancelled while the request is queued returns
// context.Canceled and the plan never executes for it.
func TestBatcherCancelWhileQueuedSkipsPlan(t *testing.T) {
	b, _ := newTestBatcher(t, 4, BatcherOptions{FlushDeadline: 150 * time.Millisecond}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, sampleFor(1), 0)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the collector receive the request
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled queued Submit returned %v, want context.Canceled", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("cancelled Submit did not return before the flush deadline")
	}
	// Flush deadline passes; the abandoned request must not have run.
	time.Sleep(200 * time.Millisecond)
	if got := b.Stats().Runs; got != 0 {
		t.Fatalf("plan ran %d times for a request cancelled while queued, want 0", got)
	}
}

// TestBatcherDeadlineDuringExecutionStillDelivers asserts the other half
// of the lifecycle: once a batch has claimed a request, its completed
// result is delivered even if the submitter's deadline expires while the
// batch executes.
func TestBatcherDeadlineDuringExecutionStillDelivers(t *testing.T) {
	// ~7 nodes × 10ms ≈ 70ms per run; the 30ms context deadline expires
	// mid-execution.
	b, pool := newTestBatcher(t, 2, BatcherOptions{FlushDeadline: time.Millisecond}, slowPolicy{delay: 10 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	sample := sampleFor(2)
	res, err := b.Submit(ctx, sample, 0)
	if err != nil {
		t.Fatalf("Submit returned %v; a claimed request must deliver its completed result", err)
	}
	if ctx.Err() == nil {
		t.Skip("run finished before the deadline; timing too coarse to assert")
	}
	want := referenceRow(t, pool, sample)
	for i := range res.Output {
		if res.Output[i] != want[i] {
			t.Fatalf("delivered result diverged from reference at %d", i)
		}
	}
}

// TestBatcherCloseDrains asserts graceful drain: requests in flight at
// Close complete (or fail fast with ErrClosed if never handed over), and
// every Submit after Close fails with ErrClosed without executing.
func TestBatcherCloseDrains(t *testing.T) {
	b, _ := newTestBatcher(t, 4, BatcherOptions{FlushDeadline: 50 * time.Millisecond}, slowPolicy{delay: 2 * time.Millisecond})
	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = b.Submit(context.Background(), sampleFor(c), 0)
		}(c)
	}
	time.Sleep(10 * time.Millisecond) // in-flight: some gathered, some queued
	b.Close()
	wg.Wait()
	for c, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("client %d: %v, want nil or ErrClosed", c, err)
		}
	}
	runsAtClose := b.Stats().Runs
	if _, err := b.Submit(context.Background(), sampleFor(0), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
	if b.Stats().Runs != runsAtClose {
		t.Fatal("Submit after Close executed a plan")
	}
}

func TestBatcherImmediateMode(t *testing.T) {
	b, pool := newTestBatcher(t, 4, BatcherOptions{Immediate: true}, nil)
	// A lone request must be served without waiting for peers.
	sample := sampleFor(5)
	start := time.Now()
	res, err := b.Submit(context.Background(), sample, 0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("immediate-mode lone request took %v", elapsed)
	}
	want := referenceRow(t, pool, sample)
	for i := range res.Output {
		if res.Output[i] != want[i] {
			t.Fatalf("immediate-mode output diverged at %d", i)
		}
	}
	// Concurrent fire still coalesces only what is queued; all served.
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), sampleFor(c), 0); err != nil {
				t.Errorf("client %d: %v", c, err)
			}
		}(c)
	}
	wg.Wait()
}

func TestBatcherTypedErrors(t *testing.T) {
	b, _ := newTestBatcher(t, 2, BatcherOptions{}, nil)
	if _, err := b.Submit(context.Background(), []float32{1, 2, 3}, 0); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("short sample returned %v, want ErrShapeMismatch", err)
	}

	// Multi-input plans are rejected at construction.
	g := graph.New("two-in")
	a, _ := g.Input("a", []int{1, 8})
	c, _ := g.Input("b", []int{1, 8})
	s, _ := g.Add("Add", "sum", nil, a, c)
	_ = g.MarkOutput(s)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatcher(NewSessionPool(plan), BatcherOptions{}); err == nil {
		t.Fatal("NewBatcher accepted a two-input plan")
	}
}

// TestBatcherSubmitCancelCloseStress is the -race gauntlet over the full
// lifecycle: concurrent submitters, random cancellation, a flusher, and a
// final Close racing in-flight work.
func TestBatcherSubmitCancelCloseStress(t *testing.T) {
	b, pool := newTestBatcher(t, 3, BatcherOptions{FlushDeadline: time.Millisecond}, nil)
	wants := make([][]float32, 3)
	for k := range wants {
		wants[k] = referenceRow(t, pool, sampleFor(k))
	}
	const goroutines = 8
	const iters = 15
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			for i := 0; i < iters; i++ {
				k := (gi + i) % len(wants)
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					delay := time.Duration(rng.Intn(300)) * time.Microsecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
				}
				res, err := b.Submit(ctx, sampleFor(k), time.Duration(rng.Intn(3))*time.Millisecond)
				cancel()
				if err != nil {
					if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrClosed) {
						t.Errorf("goroutine %d iter %d: %v", gi, i, err)
						return
					}
					continue
				}
				for j := range res.Output {
					if res.Output[j] != wants[k][j] {
						t.Errorf("goroutine %d iter %d: output bled across requests", gi, i)
						return
					}
				}
				if i%5 == 0 {
					b.Flush()
				}
			}
		}(gi)
	}
	wg.Wait()
	b.Close()
	if _, err := b.Submit(context.Background(), sampleFor(0), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-stress Submit after Close returned %v, want ErrClosed", err)
	}
}

// TestBatcherStats pins the observability counters: every served request
// is counted once, flush causes classify launches, queued wait
// accumulates, and the depth gauge returns to zero when idle.
func TestBatcherStats(t *testing.T) {
	b, _ := newTestBatcher(t, 4, BatcherOptions{FlushDeadline: 2 * time.Millisecond}, nil)
	const clients = 9
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), sampleFor(c), 0); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	st := b.Stats()
	if st.Requests != clients {
		t.Errorf("Requests = %d, want %d", st.Requests, clients)
	}
	if st.Runs < 1 {
		t.Errorf("Runs = %d, want >= 1", st.Runs)
	}
	if got := st.FlushFull + st.FlushDeadline + st.FlushImmediate + st.FlushExplicit + st.FlushClose; got != st.Runs {
		// Every launched batch in this test claims at least one request,
		// so flush causes and runs must agree.
		t.Errorf("flush causes sum to %d, runs = %d", got, st.Runs)
	}
	if st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after drain, want 0", st.QueueDepth)
	}
	if st.QueuedWait < 0 {
		t.Errorf("QueuedWait = %v, want >= 0", st.QueuedWait)
	}
	if st.FlushImmediate != 0 {
		t.Errorf("FlushImmediate = %d on a deadline batcher", st.FlushImmediate)
	}
	var histTotal int64
	for _, n := range st.WaitHistogram {
		histTotal += n
	}
	if histTotal != st.Requests {
		// Every claimed request lands in exactly one wait bucket, so the
		// histogram and the Requests counter cover the same population.
		t.Errorf("WaitHistogram sums to %d, Requests = %d", histTotal, st.Requests)
	}
}

// TestWaitBucket pins the histogram bucketing: bounds are inclusive and
// anything past the last bound lands in the overflow bucket.
func TestWaitBucket(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{100 * time.Microsecond, 0},
		{101 * time.Microsecond, 1},
		{time.Millisecond, 3},
		{2 * time.Millisecond, 4},
		{25 * time.Millisecond, 7},
		{26 * time.Millisecond, WaitBuckets - 1},
		{time.Hour, WaitBuckets - 1},
	}
	for _, c := range cases {
		if got := waitBucket(c.d); got != c.want {
			t.Errorf("waitBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestBatcherStatsCancelledNotServed asserts a request abandoned while
// queued never counts as served and leaves the depth gauge balanced.
func TestBatcherStatsCancelledNotServed(t *testing.T) {
	b, _ := newTestBatcher(t, 4, BatcherOptions{FlushDeadline: 200 * time.Millisecond}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Submit(ctx, sampleFor(1), 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it queue
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v, want context.Canceled", err)
	}
	b.Flush() // release the gathering batch; it claims nothing
	time.Sleep(10 * time.Millisecond)
	st := b.Stats()
	if st.Requests != 0 {
		t.Errorf("Requests = %d, want 0", st.Requests)
	}
	if st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d, want 0", st.QueueDepth)
	}
	if st.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Rejected != 0 {
		t.Errorf("Rejected = %d, want 0 — cancellation must not count as shedding", st.Rejected)
	}
}

// TestBatcherStatsImmediate pins the immediate-mode flush counter.
func TestBatcherStatsImmediate(t *testing.T) {
	b, _ := newTestBatcher(t, 4, BatcherOptions{Immediate: true}, nil)
	if _, err := b.Submit(context.Background(), sampleFor(0), 0); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.FlushImmediate != 1 || st.Requests != 1 {
		t.Errorf("stats = %+v, want one immediate flush serving one request", st)
	}
}

// TestSubmitStagedMatchesSubmit pins the zero-copy staging hook: staged
// and copied submissions of the same samples produce identical results,
// the stage callback runs exactly once per claimed request and receives a
// dst of exactly the plan's input volume, and a nil callback is rejected
// with a typed error.
func TestSubmitStagedMatchesSubmit(t *testing.T) {
	b, pool := newTestBatcher(t, 4, BatcherOptions{FlushDeadline: 5 * time.Millisecond}, nil)
	perVol := tensor.Volume(pool.Plan().InputDescs()[0].Shape)
	if _, err := b.SubmitStaged(context.Background(), nil, 0); !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("nil stage callback error = %v, want ErrShapeMismatch", err)
	}

	const clients = 8
	var wg sync.WaitGroup
	var stageCalls atomic.Int64
	outs := make([][]float32, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sample := sampleFor(i % 3)
			var res BatchResult
			var err error
			if i%2 == 0 {
				res, err = b.Submit(context.Background(), sample, 0)
			} else {
				res, err = b.SubmitStaged(context.Background(), func(dst []float32) {
					stageCalls.Add(1)
					if len(dst) != perVol {
						errs[i] = fmt.Errorf("stage dst has %d values, want the input volume %d", len(dst), perVol)
						return
					}
					copy(dst, sample)
				}, 0)
			}
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.Output
		}(i)
	}
	wg.Wait()
	if got := stageCalls.Load(); got != clients/2 {
		t.Fatalf("stage callback ran %d times, want %d", got, clients/2)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		want := referenceRow(t, pool, sampleFor(i%3))
		for j := range want {
			if outs[i][j] != want[j] {
				t.Fatalf("client %d diverged from reference at %d (staged=%v)", i, j, i%2 == 1)
			}
		}
	}
}

// TestSubmitStagedCancelledNeverStages pins the claim contract on the
// staged path: a request abandoned by its context while queued never has
// its stage callback invoked.
func TestSubmitStagedCancelledNeverStages(t *testing.T) {
	// A long flush deadline holds the request queued; cancelling during
	// the gather must abandon it before staging.
	b, _ := newTestBatcher(t, 4, BatcherOptions{FlushDeadline: time.Minute}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	staged := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		_, err := b.SubmitStaged(ctx, func(dst []float32) { staged <- struct{}{} }, 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled staged submit = %v, want context.Canceled", err)
	}
	select {
	case <-staged:
		t.Fatal("stage callback ran for a cancelled-while-queued request")
	case <-time.After(50 * time.Millisecond):
	}
}
