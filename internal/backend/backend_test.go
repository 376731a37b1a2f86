package backend

import (
	"context"
	"strings"
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// convNet builds conv->bn->relu->dwconv->relu->gap->flatten->dense->softmax,
// touching every op class the policies dispatch on.
func convNet(t testing.TB) *graph.Graph {
	t.Helper()
	r := tensor.NewRNG(21)
	g := graph.New("convnet")
	x, _ := g.Input("input", []int{1, 4, 16, 16})
	w1, _ := g.Const("w1", tensor.HeNormal(r, 8, 4, 3, 3))
	c1, _ := g.Add("Conv", "conv1", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x, w1)
	s, _ := g.Const("bn.s", tensor.Rand(r, 0.8, 1.2, 8))
	bb, _ := g.Const("bn.b", tensor.Rand(r, -0.1, 0.1, 8))
	m, _ := g.Const("bn.m", tensor.Rand(r, -0.1, 0.1, 8))
	v, _ := g.Const("bn.v", tensor.Rand(r, 0.5, 1.5, 8))
	bn, _ := g.Add("BatchNorm", "bn1", nil, c1, s, bb, m, v)
	r1, _ := g.Add("Relu", "relu1", nil, bn)
	wd, _ := g.Const("wdw", tensor.HeNormal(r, 8, 1, 3, 3))
	dw, _ := g.Add("Conv", "dw1", graph.Attrs{"pads": []int{1, 1, 1, 1}, "group": 8}, r1, wd)
	r2, _ := g.Add("Relu", "relu2", nil, dw)
	gap, _ := g.Add("GlobalAveragePool", "gap", nil, r2)
	fl, _ := g.Add("Flatten", "flat", graph.Attrs{"axis": 1}, gap)
	wf, _ := g.Const("wf", tensor.HeNormal(r, 10, 8))
	fc, _ := g.Add("Dense", "fc", nil, fl, wf)
	sm, _ := g.Add("Softmax", "prob", nil, fc)
	_ = g.MarkOutput(sm)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func runBackend(t testing.TB, b *Backend, g *graph.Graph, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	plan, err := b.PrepareWith(g, PrepareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSession(plan)
	out, err := sess.Run(context.Background(), map[string]*tensor.Tensor{"input": x})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		return v.Clone()
	}
	t.Fatal("no output")
	return nil
}

func TestAllBackendsAgreeNumerically(t *testing.T) {
	g := convNet(t)
	x := tensor.Rand(tensor.NewRNG(5), -1, 1, 1, 4, 16, 16)
	var ref *tensor.Tensor
	for _, name := range []string{"orpheus", "orpheus-heuristic", "orpheus-tuned", "tvm-sim", "torch-sim", "darknet-sim"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.SupportsModel != nil {
			b = cloneWithoutModelGate(b)
		}
		out := runBackend(t, b, g, x)
		if ref == nil {
			ref = out
			continue
		}
		if !tensor.AllClose(out, ref, 1e-3) {
			t.Errorf("backend %s diverges from orpheus: max diff %g", name, tensor.MaxAbsDiff(out, ref))
		}
	}
}

// cloneWithoutModelGate drops the model allowlist so numerical tests can
// run every backend on the same synthetic net.
func cloneWithoutModelGate(b *Backend) *Backend {
	c := *b
	c.SupportsModel = nil
	return &c
}

func TestBackendRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"orpheus", "orpheus-heuristic", "orpheus-tuned", "tvm-sim", "torch-sim", "darknet-sim", "tflite-sim"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("backend %q missing from registry %v", want, names)
		}
	}
	if _, err := ByName("mxnet"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestTFLiteRefusesSingleThread(t *testing.T) {
	b, _ := ByName("tflite-sim")
	g := convNet(t)
	if _, err := b.PrepareWith(g, PrepareOpts{}); err == nil {
		t.Fatal("tflite-sim accepted a single-thread request (paper says it cannot)")
	}
	if _, err := b.PrepareWith(g, PrepareOpts{Workers: 4}); err != nil {
		t.Fatalf("tflite-sim with 4 threads should work: %v", err)
	}
}

func TestModelAvailabilityGates(t *testing.T) {
	dn, _ := ByName("darknet-sim")
	if err := dn.SupportsModel("mobilenet-v1"); err == nil {
		t.Fatal("darknet-sim should only support ResNets")
	}
	if err := dn.SupportsModel("resnet-18"); err != nil {
		t.Fatalf("darknet-sim should support resnet-18: %v", err)
	}
	tfl, _ := ByName("tflite-sim")
	if err := tfl.SupportsModel("resnet-50"); err == nil {
		t.Fatal("tflite-sim should not support ResNets")
	}
	if err := tfl.SupportsModel("wrn-40-2"); err != nil {
		t.Fatalf("tflite-sim should support wrn: %v", err)
	}
}

func TestTorchSimSkipsOptimisation(t *testing.T) {
	g := convNet(t)
	torch, _ := ByName("torch-sim")
	plan, err := torch.PrepareWith(g, PrepareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	foundBN := false
	for _, st := range plan.Steps() {
		if st.Node.Op == "BatchNorm" {
			foundBN = true
		}
		if st.Node.Op == "Conv" && st.Node.Attrs.Int("group", 1) > 1 && st.Kernel != "conv.group_im2col" {
			t.Fatalf("torch-sim depthwise uses %s, want conv.group_im2col", st.Kernel)
		}
	}
	if !foundBN {
		t.Fatal("torch-sim should run the unoptimised graph (BatchNorm present)")
	}

	orp, _ := ByName("orpheus")
	plan, err = orp.PrepareWith(g, PrepareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Steps() {
		if st.Node.Op == "BatchNorm" {
			t.Fatal("orpheus backend should fold BatchNorm")
		}
		if st.Node.Op == "Conv" && st.Node.Attrs.Int("group", 1) > 1 && st.Kernel != "conv.depthwise" {
			t.Fatalf("orpheus depthwise uses %s, want conv.depthwise", st.Kernel)
		}
	}
}

func TestPreparedoesNotMutateOriginal(t *testing.T) {
	g := convNet(t)
	nodesBefore := len(g.Nodes)
	orp, _ := ByName("orpheus")
	if _, err := orp.PrepareWith(g, PrepareOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != nodesBefore {
		t.Fatal("Prepare mutated the caller's graph")
	}
}

func TestHeuristicPolicyCrossover(t *testing.T) {
	mk := func(c, h int) *graph.Node {
		r := tensor.NewRNG(1)
		g := graph.New("h")
		x, _ := g.Input("x", []int{1, c, h, h})
		w, _ := g.Const("w", tensor.HeNormal(r, c, c, 3, 3))
		_, _ = g.Add("Conv", "c", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x, w)
		if err := g.InferShapes(); err != nil {
			t.Fatal(err)
		}
		return g.Nodes[0]
	}
	p := &HeuristicPolicy{}
	small, err := p.Select(mk(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if small.Name() != "conv.spatialpack" {
		t.Fatalf("small conv selected %s, want conv.spatialpack", small.Name())
	}
	big, err := p.Select(mk(128, 56))
	if err != nil {
		t.Fatal(err)
	}
	if big.Name() != "conv.im2col" {
		t.Fatalf("big conv selected %s, want conv.im2col", big.Name())
	}
}

func TestAutoTuneCachesDecisions(t *testing.T) {
	g := convNet(t)
	p := NewAutoTunePolicy(false)
	p.Repeats = 1
	for _, n := range g.Nodes {
		if n.Op != "Conv" {
			continue
		}
		k1, err := p.Select(n)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := p.Select(n)
		if err != nil {
			t.Fatal(err)
		}
		if k1.Name() != k2.Name() {
			t.Fatal("autotune not deterministic across cache hits")
		}
	}
	if len(p.cache) != 2 { // two distinct conv signatures
		t.Fatalf("cache size = %d, want 2", len(p.cache))
	}
}

// TestAutoTuneInt8Eligibility pins the candidate-pool rules of the int8
// tier: quantized kernels are invisible to fp32 tuning (a plan that never
// opted in must stay bit-accurate fp32) and join the pool only when the
// plan's int8 flag is handed to the tuner.
func TestAutoTuneInt8Eligibility(t *testing.T) {
	g := convNet(t)
	var conv *graph.Node
	for _, n := range g.Nodes {
		if n.Op == "Conv" && n.Attrs.Int("group", 1) == 1 {
			conv = n
			break
		}
	}
	if conv == nil {
		t.Fatal("no dense conv in fixture")
	}
	hasQuantized := func(ks []ops.Kernel) bool {
		for _, k := range ks {
			if ops.IsQuantized(k) {
				return true
			}
		}
		return false
	}
	if hasQuantized(supportingKernels(conv, false)) {
		t.Error("fp32 candidate pool contains a quantized kernel")
	}
	if !hasQuantized(supportingKernels(conv, true)) {
		t.Error("int8 candidate pool is missing the quantized kernel")
	}
}

func TestKernelSummary(t *testing.T) {
	g := convNet(t)
	orp, _ := ByName("orpheus")
	plan, err := orp.PrepareWith(g, PrepareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := KernelSummary(plan.Steps())
	if !strings.Contains(s, "conv.im2col") || !strings.Contains(s, "conv.depthwise") {
		t.Fatalf("summary missing kernels: %q", s)
	}
}
