package runtime

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orpheus/internal/faultinject"
	"orpheus/internal/tensor"
)

// faultedPool compiles smallCNN with a fault injector installed and wraps
// a session pool around it.
func faultedPool(t *testing.T, maxBatch int, fi *faultinject.Injector) *SessionPool {
	t.Helper()
	plan, err := Compile(smallCNN(t), Options{MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	plan.SetFault(fi)
	return NewSessionPool(plan)
}

// TestPlanPanicIsTypedAndQuarantines drives a panic through a plan step
// and pins the containment contract end to end: the caller gets a typed
// *PlanPanicError naming the step (never a crash), the poisoned session
// is quarantined by the pool, and the pool keeps serving correct results
// on fresh sessions afterwards.
func TestPlanPanicIsTypedAndQuarantines(t *testing.T) {
	fi := faultinject.New(1, &faultinject.Rule{Step: "fc", Action: faultinject.ActPanic, Times: 1})
	pool := faultedPool(t, 1, fi)
	in := tensor.FromSlice(sampleFor(0), 1, 3, 8, 8)

	_, err := pool.Run(context.Background(), map[string]*tensor.Tensor{"x": in})
	if !errors.Is(err, ErrPlanPanic) {
		t.Fatalf("poisoned run returned %v, want ErrPlanPanic", err)
	}
	var pp *PlanPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("error %v does not unwrap to *PlanPanicError", err)
	}
	if pp.Model != "smallcnn" || pp.Node != "fc" || pp.Op != "Dense" {
		t.Fatalf("panic error identifies %s/%s (%s), want smallcnn/fc (Dense)", pp.Model, pp.Node, pp.Op)
	}
	if _, ok := pp.Value.(*faultinject.PanicValue); !ok {
		t.Fatalf("recovered value is %T, want *faultinject.PanicValue", pp.Value)
	}
	if q := pool.Quarantined(); q != 1 {
		t.Fatalf("Quarantined = %d, want 1", q)
	}

	// The rule is spent (Times: 1); the pool must serve clean requests on a
	// fresh session, matching an uninjected reference plan.
	cleanPool := faultedPool(t, 1, nil)
	want := referenceRow(t, cleanPool, sampleFor(0))
	outs, err := pool.Run(context.Background(), map[string]*tensor.Tensor{"x": in})
	if err != nil {
		t.Fatalf("run after quarantine failed: %v", err)
	}
	for _, v := range outs {
		got := v.Data()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("post-quarantine output diverged at %d", j)
			}
		}
	}
	if q := pool.Quarantined(); q != 1 {
		t.Fatalf("Quarantined = %d after clean run, want still 1", q)
	}
}

// TestInjectedErrorFailsRequestOnly pins the error path of the fault
// hook: an injected step error fails the request with a typed, wrapped
// error but does not poison the session — errors are clean control flow,
// only panics leave the arena suspect.
func TestInjectedErrorFailsRequestOnly(t *testing.T) {
	fi := faultinject.New(1, &faultinject.Rule{Step: "relu1", Action: faultinject.ActError, Times: 1})
	pool := faultedPool(t, 1, fi)
	in := tensor.FromSlice(sampleFor(1), 1, 3, 8, 8)

	_, err := pool.Run(context.Background(), map[string]*tensor.Tensor{"x": in})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted run returned %v, want ErrInjected", err)
	}
	if errors.Is(err, ErrPlanPanic) {
		t.Fatal("injected error must not read as a panic")
	}
	if q := pool.Quarantined(); q != 0 {
		t.Fatalf("Quarantined = %d, want 0 — errors do not poison sessions", q)
	}
	if _, err := pool.Run(context.Background(), map[string]*tensor.Tensor{"x": in}); err != nil {
		t.Fatalf("run after injected error failed: %v", err)
	}
}

// TestBatcherBoundedAdmission pins the shedding contract
// deterministically: two requests held in the gather phase fill the
// bounded queue to its cap, a third is rejected immediately with
// ErrOverloaded, and after an explicit flush the admitted pair completes
// with correct outputs while only the Rejected counter absorbed the shed
// request.
func TestBatcherBoundedAdmission(t *testing.T) {
	b, pool := newTestBatcher(t, 4,
		BatcherOptions{FlushDeadline: 10 * time.Second, QueueDepth: 2}, nil)
	want := referenceRow(t, pool, sampleFor(0))

	// Two requests sit gathering (the flush deadline is far away), holding
	// the queue at its cap.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := b.Submit(context.Background(), sampleFor(0), 0)
			if err != nil {
				t.Errorf("admitted request failed: %v", err)
				return
			}
			for j := range res.Output {
				if res.Output[j] != want[j] {
					t.Errorf("admitted request got wrong output at %d", j)
					return
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled to its cap")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// The queue is at its cap: the next Submit must shed, immediately.
	start := time.Now()
	_, err := b.Submit(context.Background(), sampleFor(0), 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap Submit returned %v, want ErrOverloaded", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("rejection took %v — shedding must not wait", since)
	}

	b.Flush()
	wg.Wait()
	st := b.Stats()
	if st.Rejected != 1 {
		t.Errorf("Stats.Rejected = %d, want 1", st.Rejected)
	}
	if st.Requests != 2 {
		t.Errorf("Stats.Requests = %d, want 2", st.Requests)
	}
	if st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after drain, want 0", st.QueueDepth)
	}
}

// TestBatcherRunTimeoutBoundsExecution pins WithRunTimeout: a run that
// exceeds the execution budget is cancelled at a step boundary and its
// requests fail with context.DeadlineExceeded — queue wait is not
// counted, run time is.
func TestBatcherRunTimeoutBoundsExecution(t *testing.T) {
	// Six plan steps at 20ms each ≈ 120ms of run time against a 25ms cap.
	b, _ := newTestBatcher(t, 2,
		BatcherOptions{FlushDeadline: time.Millisecond, RunTimeout: 25 * time.Millisecond},
		slowPolicy{delay: 20 * time.Millisecond})
	_, err := b.Submit(context.Background(), sampleFor(0), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("overlong run returned %v, want context.DeadlineExceeded", err)
	}
}

// TestEstimateWaitFloor pins the Retry-After source: with no history the
// estimate is the flush deadline, and it never sinks below it.
func TestEstimateWaitFloor(t *testing.T) {
	b, _ := newTestBatcher(t, 2, BatcherOptions{FlushDeadline: 5 * time.Millisecond}, nil)
	if got := b.EstimateWait(); got != 5*time.Millisecond {
		t.Fatalf("EstimateWait with no history = %v, want the 5ms flush deadline", got)
	}
	if _, err := b.Submit(context.Background(), sampleFor(0), 0); err != nil {
		t.Fatal(err)
	}
	if got := b.EstimateWait(); got < 5*time.Millisecond {
		t.Fatalf("EstimateWait = %v, want >= the 5ms floor", got)
	}
}

// TestRejectedAfterClose pins the post-Close admission path: Submits fail
// with ErrClosed and count as rejected, not cancelled.
func TestRejectedAfterClose(t *testing.T) {
	b, _ := newTestBatcher(t, 2, BatcherOptions{}, nil)
	b.Close()
	if _, err := b.Submit(context.Background(), sampleFor(0), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	st := b.Stats()
	if st.Rejected != 1 || st.Cancelled != 0 {
		t.Fatalf("Rejected/Cancelled = %d/%d after closed Submit, want 1/0", st.Rejected, st.Cancelled)
	}
}

// TestOverloadBattery is the -race overload gauntlet the fault harness
// exists for: a bounded batcher under sustained concurrent fire while the
// injector kills steps with probabilistic panics, errors and latency, a
// fraction of clients cancel, and Close races the tail. The invariants:
// every Submit returns exactly once with a well-typed outcome, correct
// results stay correct, the process never crashes, and the depth gauge
// balances back to zero.
func TestOverloadBattery(t *testing.T) {
	fi := faultinject.New(7,
		&faultinject.Rule{Step: "conv1", Action: faultinject.ActPanic, Probability: 0.03},
		&faultinject.Rule{Step: "relu1", Action: faultinject.ActError, Probability: 0.05},
		&faultinject.Rule{Step: "pool1", Action: faultinject.ActDelay, Delay: 200 * time.Microsecond, Probability: 0.3},
	)
	pool := faultedPool(t, 4, fi)
	b, err := NewBatcher(pool, BatcherOptions{
		FlushDeadline: 500 * time.Microsecond,
		QueueDepth:    8,
		RunTimeout:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cleanPool := faultedPool(t, 1, nil)
	want := referenceRow(t, cleanPool, sampleFor(3))

	const goroutines = 12
	const iters = 25
	var (
		wg                              sync.WaitGroup
		outcomes                        atomic.Int64
		ok, overload, panicked, injured atomic.Int64
		cancelled, closed               atomic.Int64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (g+i)%5 == 0 {
					go func() {
						time.Sleep(300 * time.Microsecond)
						cancel()
					}()
				}
				res, err := b.Submit(ctx, sampleFor(3), 0)
				cancel()
				outcomes.Add(1)
				switch {
				case err == nil:
					ok.Add(1)
					if len(res.Output) != len(want) {
						t.Errorf("goroutine %d iter %d: output has %d values, want %d", g, i, len(res.Output), len(want))
						return
					}
					for j := range want {
						if res.Output[j] != want[j] {
							t.Errorf("goroutine %d iter %d: output corrupted at %d", g, i, j)
							return
						}
					}
				case errors.Is(err, ErrOverloaded):
					overload.Add(1)
				case errors.Is(err, ErrPlanPanic):
					panicked.Add(1)
				case errors.Is(err, faultinject.ErrInjected):
					injured.Add(1)
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				default:
					t.Errorf("goroutine %d iter %d: untyped outcome %v", g, i, err)
					return
				}
			}
		}(g)
	}
	// Close races the last wave: half the submitters are still firing when
	// the drain starts.
	time.Sleep(20 * time.Millisecond)
	b.Close()
	wg.Wait()

	if got := outcomes.Load(); got != goroutines*iters {
		t.Fatalf("%d outcomes for %d submits — a request vanished or doubled", got, goroutines*iters)
	}
	if ok.Load() == 0 {
		t.Error("no request succeeded under fault load")
	}
	st := b.Stats()
	if st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after full drain, want 0", st.QueueDepth)
	}
	panics, injErrs, delays := fi.Counts()
	if panics > 0 && pool.Quarantined() == 0 {
		t.Errorf("injector fired %d panics but no session was quarantined", panics)
	}
	t.Logf("outcomes: %d ok, %d overloaded, %d panicked, %d injected, %d cancelled, %d closed; injector fired %d panics, %d errors, %d delays; %d sessions quarantined",
		ok.Load(), overload.Load(), panicked.Load(), injured.Load(), cancelled.Load(), closed.Load(),
		panics, injErrs, delays, pool.Quarantined())
}

// TestFaultHookKeepsRunAllocFree pins the zero-cost claim of the harness:
// with an injector installed whose rules never match, the steady-state
// Session.Run loop — now passing through the panic barrier and the fault
// hook on every step — still performs zero heap allocations.
func TestFaultHookKeepsRunAllocFree(t *testing.T) {
	fi := faultinject.New(1, &faultinject.Rule{Model: "some-other-model", Action: faultinject.ActPanic})
	plan, err := Compile(smallCNN(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan.SetFault(fi)
	sess := NewSession(plan)
	in := tensor.FromSlice(sampleFor(2), 1, 3, 8, 8)
	inputs := map[string]*tensor.Tensor{"x": in}
	ctx := context.Background()
	if _, err := sess.Run(ctx, inputs); err != nil { // warm the bindings
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := sess.Run(ctx, inputs); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Run with inert fault hook allocates %.1f objects/op, want 0", avg)
	}
}
