package orpheus

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// batchCells enumerates the batched-vs-looped equivalence sweep. Every zoo
// model runs on the native backend; the full backend matrix (framework
// simulations included, which exercise the dynamic-allocation and
// direct-conv paths) runs on the smallest model so the sweep stays within
// CI budget. The big ImageNet models get a trimmed n-sweep for the same
// reason — the batched code path is identical across n, only the runtime
// grows.
var batchCells = []struct {
	model, backendName string
	workers            int
	batches            []int
	int8               bool
}{
	{"wrn-40-2", "orpheus", 1, []int{1, 2, 3, 8}, false},
	{"mobilenet-v1", "orpheus", 1, []int{1, 2, 3, 8}, false},
	{"resnet-18", "orpheus", 1, []int{1, 2}, false},
	{"inception-v3", "orpheus", 1, []int{1, 2}, false},
	{"resnet-50", "orpheus", 1, []int{1, 2}, false},
	{"wrn-40-2", "orpheus-heuristic", 1, []int{1, 2, 3, 8}, false},
	{"wrn-40-2", "orpheus-tuned", 1, []int{1, 2}, false},
	{"wrn-40-2", "tvm-sim", 1, []int{1, 2, 3, 8}, false},
	{"wrn-40-2", "torch-sim", 1, []int{1, 2, 3, 8}, false},
	{"wrn-40-2", "tflite-sim", 2, []int{1, 2, 3, 8}, false},
	{"resnet-18", "darknet-sim", 1, []int{1, 2}, false},
	{"wrn-40-2", "orpheus", 4, []int{1, 2, 3, 8}, false}, // multi-worker batch×tile path
	// The tuner arbitrating fp32 vs int8: one decision at compile, so a
	// sample is answered by the same kernels whatever batch it rides in.
	{"wrn-40-2", "orpheus-tuned", 1, []int{1, 4}, true},
}

// TestBatchedMatchesLooped asserts the tentpole invariant: a batched
// inference is numerically identical to the same samples predicted one by
// one through the same compiled session. On the tuned backend — the one
// policy that measures — it also checks that a profiled run at every
// batch size executes exactly the kernels PlanSummary prints.
func TestBatchedMatchesLooped(t *testing.T) {
	for _, cell := range batchCells {
		cell := cell
		name := fmt.Sprintf("%s/%s", cell.model, cell.backendName)
		if cell.workers > 1 {
			name = fmt.Sprintf("%s/workers%d", name, cell.workers)
		}
		opts := []CompileOption{WithBackend(cell.backendName), WithWorkers(cell.workers)}
		if cell.int8 {
			name += "/int8"
			opts = append(opts, WithInt8())
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && cell.model != "wrn-40-2" {
				t.Skip("short mode: wrn-40-2 only")
			}
			maxN := 0
			for _, n := range cell.batches {
				if n > maxN {
					maxN = n
				}
			}
			m, err := BuildZooModel(cell.model)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := m.Compile(append(opts, WithMaxBatch(maxN))...)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]*Tensor, maxN)
			want := make([]*Tensor, maxN)
			for i := range inputs {
				inputs[i] = RandomTensor(uint64(100+i), m.InputShape()...)
				out, err := sess.Predict(context.Background(), inputs[i])
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out
			}
			for _, n := range cell.batches {
				got, err := sess.PredictBatch(context.Background(), inputs[:n])
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				for i := 0; i < n; i++ {
					if !tensor.AllClose(got[i], want[i], 0) {
						t.Errorf("n=%d sample %d: batched output diverged from looped Predict (max diff %g)",
							n, i, tensor.MaxAbsDiff(got[i], want[i]))
					}
				}
				if cell.backendName != "orpheus-tuned" {
					continue
				}
				batch := tensor.New(append([]int{n}, m.InputShape()[1:]...)...)
				for i, in := range inputs[:n] {
					copy(batch.Data()[i*in.Size():], in.Data())
				}
				_, timings, err := sess.PredictProfiled(context.Background(), batch)
				if err != nil {
					t.Fatalf("n=%d profiled: %v", n, err)
				}
				for i, line := range sess.PlanSummary() {
					if f := strings.Fields(line); f[len(f)-1] != timings[i].Kernel {
						t.Errorf("n=%d: %s ran %s, PlanSummary says %s", n, f[0], timings[i].Kernel, f[len(f)-1])
					}
				}
			}
		})
	}
}

// TestBatchSizeInterleaving runs one session through a shuffled sequence
// of batch sizes and checks nothing bleeds between the per-batch-size
// prebound bindings.
func TestBatchSizeInterleaving(t *testing.T) {
	m, err := BuildZooModel("wrn-40-2")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Compile(WithMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*Tensor, 4)
	want := make([]*Tensor, 4)
	for i := range inputs {
		inputs[i] = RandomTensor(uint64(7+i), m.InputShape()...)
		out, err := sess.Predict(context.Background(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	for _, n := range []int{4, 1, 3, 4, 2, 1, 4} {
		got, err := sess.PredictBatch(context.Background(), inputs[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if !tensor.AllClose(got[i], want[i], 0) {
				t.Fatalf("n=%d sample %d diverged after batch-size interleaving", n, i)
			}
		}
	}
}

// TestRebatchWithBakedReshape covers the ONNX-style graph whose Reshape
// target bakes the build-time batch into its leading dim ([1, C*H*W]):
// shape inference's batch fallback must reinterpret that dim as
// batch-relative when the graph is rebatched, and batched execution must
// still match looped prediction.
func TestRebatchWithBakedReshape(t *testing.T) {
	r := tensor.NewRNG(17)
	g := graph.New("baked-reshape")
	x, err := g.Input("x", []int{1, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := g.Const("w", tensor.HeNormal(r, 6, 3, 3, 3))
	c, _ := g.Add("Conv", "conv", graph.Attrs{"pads": []int{1, 1, 1, 1}, "activation": "relu"}, x, w)
	rs, _ := g.Add("Reshape", "reshape", graph.Attrs{"shape": []int{1, 6 * 8 * 8}}, c)
	wd, _ := g.Const("wd", tensor.HeNormal(r, 5, 6*8*8))
	d, _ := g.Add("Dense", "fc", nil, rs, wd)
	if err := g.MarkOutput(d); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	sess, err := FromGraph(g).Compile(WithMaxBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*Tensor, 3)
	want := make([]*Tensor, 3)
	for i := range inputs {
		inputs[i] = RandomTensor(uint64(50+i), 1, 3, 8, 8)
		out, err := sess.Predict(context.Background(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	got, err := sess.PredictBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !tensor.AllClose(got[i], want[i], 0) {
			t.Errorf("sample %d diverged through the rebatched Reshape", i)
		}
	}
}

// TestRebatchWithInferredFlatten covers the other exporter idiom: a
// flatten written as Reshape [1, -1]. A strict inference would silently
// fold the runtime batch into the inferred dim ([1, n·C·H·W] instead of
// [n, C·H·W]) under WithMaxBatch, producing wrong per-sample outputs; the
// inferred-dim batch fallback must keep the leading dim on the batch. The
// dense layer after the flatten makes the failure structural (its shape
// check rejects the folded form), and the numeric sweep pins per-sample
// equality.
func TestRebatchWithInferredFlatten(t *testing.T) {
	r := tensor.NewRNG(23)
	g := graph.New("inferred-flatten")
	x, err := g.Input("x", []int{1, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := g.Const("w", tensor.HeNormal(r, 6, 3, 3, 3))
	c, _ := g.Add("Conv", "conv", graph.Attrs{"pads": []int{1, 1, 1, 1}, "activation": "relu"}, x, w)
	rs, _ := g.Add("Reshape", "reshape", graph.Attrs{"shape": []int{1, -1}}, c)
	wd, _ := g.Const("wd", tensor.HeNormal(r, 5, 6*8*8))
	d, _ := g.Add("Dense", "fc", nil, rs, wd)
	if err := g.MarkOutput(d); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	sess, err := FromGraph(g).Compile(WithMaxBatch(3))
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]*Tensor, 3)
	want := make([]*Tensor, 3)
	for i := range inputs {
		inputs[i] = RandomTensor(uint64(80+i), 1, 3, 8, 8)
		out, err := sess.Predict(context.Background(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	for _, n := range []int{3, 2} {
		got, err := sess.PredictBatch(context.Background(), inputs[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := 0; i < n; i++ {
			if !tensor.AllClose(got[i], want[i], 0) {
				t.Errorf("n=%d sample %d diverged through the inferred-dim Reshape", n, i)
			}
		}
	}
}

// TestReshapeMistypeStillErrors pins down the Reshape batch fallback's
// gate: a genuinely wrong target volume on a plain batch-1 graph must
// keep failing shape inference, not be silently reinterpreted.
func TestReshapeMistypeStillErrors(t *testing.T) {
	g := graph.New("bad-reshape")
	x, err := g.Input("x", []int{1, 30})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := g.Add("Reshape", "reshape", graph.Attrs{"shape": []int{1, 10}}, x)
	if err := g.MarkOutput(rs); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err == nil {
		t.Fatal("mistyped Reshape target [1,10] over 30 elements accepted")
	}
}

// TestPredictBatchValidation covers the batch-limit and shape errors of
// the batched facade.
func TestPredictBatchValidation(t *testing.T) {
	m := stressCNN(t)
	sess, err := m.Compile(WithMaxBatch(2))
	if err != nil {
		t.Fatal(err)
	}
	x := RandomTensor(1, m.InputShape()...)
	if _, err := sess.PredictBatch(context.Background(), nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := sess.PredictBatch(context.Background(), []*Tensor{x, x, x}); err == nil {
		t.Error("batch above MaxBatch accepted")
	}
	if _, err := sess.PredictBatch(context.Background(), []*Tensor{NewTensor(2, 2)}); err == nil {
		t.Error("wrong-volume input accepted")
	}
	if _, err := sess.PredictBatchInto(context.Background(), []*Tensor{nil}, []*Tensor{x, x}); err == nil {
		t.Error("mismatched destination count accepted")
	}
	if _, err := sess.PredictBatchInto(context.Background(), []*Tensor{NewTensor(3)}, []*Tensor{x}); err == nil {
		t.Error("wrong-volume destination accepted")
	}
	// Runtime-level: a raw Run above MaxBatch must be rejected too.
	big := RandomTensor(2, 3, m.InputShape()[1], m.InputShape()[2], m.InputShape()[3])
	if _, err := sess.Run(context.Background(), map[string]*Tensor{m.InputName(): big}); err == nil {
		t.Error("Run with batch above MaxBatch accepted")
	}
}
