package orpheus

import (
	"context"
	"testing"

	"orpheus/internal/backend"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// TestSessionRunSteadyStateAllocFree asserts the PR's core perf invariant:
// after warm-up (scratch grown, constant weights packed), Session.Run in
// the planned-arena configuration performs zero heap allocations — the
// marginal cost of an inference is kernels, not bookkeeping.
func TestSessionRunSteadyStateAllocFree(t *testing.T) {
	for _, model := range []string{"wrn-40-2", "mobilenet-v1"} {
		t.Run(model, func(t *testing.T) {
			g, err := zoo.Build(model, 1)
			if err != nil {
				t.Fatal(err)
			}
			be, err := backend.ByName("orpheus")
			if err != nil {
				t.Fatal(err)
			}
			plan, err := be.PrepareWith(g, backend.PrepareOpts{})
			if err != nil {
				t.Fatal(err)
			}
			sess := runtime.NewSession(plan)
			x := tensor.Rand(tensor.NewRNG(1), -1, 1, g.Inputs[0].Shape...)
			in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
			for i := 0; i < 2; i++ { // warm-up: grow scratch, pack weights
				if _, err := sess.Run(context.Background(), in); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(3, func() {
				if _, err := sess.Run(context.Background(), in); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state Session.Run allocates %.1f times per run, want 0", avg)
			}
		})
	}
}

// TestBatchedSessionRunAllocFree extends the invariant to batch-native
// plans: once a batch size's bindings exist (first run at that n), every
// later Session.Run at that n — including at the full MaxBatch — does zero
// heap allocations.
func TestBatchedSessionRunAllocFree(t *testing.T) {
	const maxBatch = 8
	g, err := zoo.Build("wrn-40-2", 1)
	if err != nil {
		t.Fatal(err)
	}
	be, err := backend.ByName("orpheus")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := be.PrepareWith(g, backend.PrepareOpts{MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSession(plan)
	for _, n := range []int{maxBatch, 3} {
		x := tensor.Rand(tensor.NewRNG(uint64(n)), -1, 1, n, 3, 32, 32)
		in := map[string]*tensor.Tensor{g.Inputs[0].Name: x}
		for i := 0; i < 2; i++ { // warm-up: bind batch n, grow scratch, pack weights
			if _, err := sess.Run(context.Background(), in); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(3, func() {
			if _, err := sess.Run(context.Background(), in); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("steady-state batched Session.Run (n=%d) allocates %.1f times per run, want 0", n, avg)
		}
	}
}

// TestPredictIntoAllocFree asserts the facade fix rides the same
// invariant: PredictInto and PredictBatchInto with reused destinations do
// zero steady-state heap allocations (the seed facade paid 4 allocs/op
// copying in and out of the pooled session).
func TestPredictIntoAllocFree(t *testing.T) {
	m, err := BuildZooModel("wrn-40-2")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Compile(WithMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	x := RandomTensor(1, m.InputShape()...)
	dst, err := sess.Predict(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.PredictInto(context.Background(), dst, x); err != nil { // warm-up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := sess.PredictInto(context.Background(), dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state PredictInto allocates %.1f times per run, want 0", avg)
	}

	inputs := []*Tensor{x, RandomTensor(2, m.InputShape()...)}
	dsts, err := sess.PredictBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.PredictBatchInto(context.Background(), dsts, inputs); err != nil { // warm-up
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(3, func() {
		if _, err := sess.PredictBatchInto(context.Background(), dsts, inputs); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state PredictBatchInto allocates %.1f times per run, want 0", avg)
	}
}

// TestTorchSimPacksPerRun pins the per-call-allocation emulation on
// torch-sim resnet-18: its sessions run the arena sessions' loop over
// fresh buffers, give the outputs of an arena plan with the same kernels
// bit for bit, leave the plan's constant cache empty (every run packs
// into its own) and allocate on every run.
func TestTorchSimPacksPerRun(t *testing.T) {
	g, err := zoo.Build("resnet-18", 1)
	if err != nil {
		t.Fatal(err)
	}
	be, err := backend.ByName("torch-sim")
	if err != nil {
		t.Fatal(err)
	}
	perCall, err := be.PrepareWith(g, backend.PrepareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	arenaPlan, err := runtime.Compile(g.Clone(), runtime.Options{Policy: be.NewPolicy(false)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in := map[string]*tensor.Tensor{g.Inputs[0].Name: tensor.Rand(tensor.NewRNG(1), -1, 1, g.Inputs[0].Shape...)}
	arena, fresh := runtime.NewSession(arenaPlan), runtime.NewSession(perCall)
	wantOuts, err := arena.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	want := wantOuts[g.Outputs[0].Name]
	for i := 0; i < 2; i++ {
		got, err := fresh.Run(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(got[g.Outputs[0].Name], want); d != 0 {
			t.Fatalf("run %d: torch-sim output differs from the arena plan's by %g", i, d)
		}
	}
	if b, n := perCall.ConstBytes(), perCall.ConstStores(); b != 0 || n != 0 {
		t.Errorf("torch-sim plan cache holds %d B after %d stores, want none", b, n)
	}
	run := func(s *runtime.Session) func() {
		return func() {
			if _, err := s.Run(ctx, in); err != nil {
				t.Fatal(err)
			}
		}
	}
	if avg := testing.AllocsPerRun(2, run(fresh)); avg == 0 {
		t.Error("torch-sim Session.Run allocates nothing; want fresh buffers every run")
	}
	if avg := testing.AllocsPerRun(2, run(arena)); avg != 0 {
		t.Errorf("arena Session.Run with torch-sim's kernels allocates %.1f times per run, want 0", avg)
	}
}
