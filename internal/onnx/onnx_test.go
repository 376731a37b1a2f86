package onnx

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// buildMixedGraph exercises every exportable op in one model.
func buildMixedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	r := tensor.NewRNG(31)
	g := graph.New("mixed")
	x, _ := g.Input("input", []int{1, 3, 12, 12})
	p0, _ := g.Add("Pad", "pad0", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x)
	w1, _ := g.Const("w1", tensor.HeNormal(r, 8, 3, 3, 3))
	b1, _ := g.Const("b1", tensor.Rand(r, -0.1, 0.1, 8))
	c1, _ := g.Add("Conv", "conv1", graph.Attrs{"strides": []int{1, 1}}, p0, w1, b1)
	s, _ := g.Const("bn.s", tensor.Rand(r, 0.8, 1.2, 8))
	bb, _ := g.Const("bn.b", tensor.Rand(r, -0.1, 0.1, 8))
	mm, _ := g.Const("bn.m", tensor.Rand(r, -0.1, 0.1, 8))
	vv, _ := g.Const("bn.v", tensor.Rand(r, 0.5, 1.5, 8))
	bn, _ := g.Add("BatchNorm", "bn1", graph.Attrs{"epsilon": 1e-5}, c1, s, bb, mm, vv)
	r6, _ := g.Add("Relu6", "relu6", nil, bn)
	wdw, _ := g.Const("wdw", tensor.HeNormal(r, 8, 1, 3, 3))
	dw, _ := g.Add("Conv", "dw", graph.Attrs{"pads": []int{1, 1, 1, 1}, "group": 8}, r6, wdw)
	lr, _ := g.Add("LeakyRelu", "leaky", graph.Attrs{"alpha": 0.1}, dw)
	mp, _ := g.Add("MaxPool", "pool", graph.Attrs{"kernel": []int{2, 2}, "strides": []int{2, 2}}, lr)
	ap, _ := g.Add("AveragePool", "apool", graph.Attrs{"kernel": []int{3, 3}, "strides": []int{1, 1}, "pads": []int{1, 1, 1, 1}}, mp)
	cat, _ := g.Add("Concat", "cat", graph.Attrs{"axis": 1}, mp, ap)
	sum, _ := g.Add("Add", "residual", nil, cat, cat)
	sig, _ := g.Add("Sigmoid", "sig", nil, sum)
	gap, _ := g.Add("GlobalAveragePool", "gap", nil, sig)
	rs, _ := g.Add("Reshape", "reshape", graph.Attrs{"shape": []int{1, -1}}, gap)
	wf, _ := g.Const("wf", tensor.HeNormal(r, 5, 16))
	bf, _ := g.Const("bf", tensor.Rand(r, -0.1, 0.1, 5))
	fc, _ := g.Add("Dense", "fc", nil, rs, wf, bf)
	sm, _ := g.Add("Softmax", "prob", graph.Attrs{"axis": 1}, fc)
	_ = g.MarkOutput(sm)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func evalGraph(t testing.TB, g *graph.Graph, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	plan, err := runtime.Compile(g, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := runtime.NewSession(plan)
	out, err := sess.Run(context.Background(), map[string]*tensor.Tensor{g.Inputs[0].Name: x})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		return v.Clone()
	}
	t.Fatal("no output")
	return nil
}

func TestModelBytesRoundTrip(t *testing.T) {
	g := buildMixedGraph(t)
	m, err := Export(g)
	if err != nil {
		t.Fatal(err)
	}
	data := m.Marshal()
	if len(data) == 0 {
		t.Fatal("empty serialisation")
	}
	m2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.ProducerName != "orpheus" || m2.OpsetVersion != 11 {
		t.Fatalf("metadata lost: %+v", m2)
	}
	if len(m2.Graph.Nodes) != len(m.Graph.Nodes) {
		t.Fatalf("nodes: %d vs %d", len(m2.Graph.Nodes), len(m.Graph.Nodes))
	}
	if len(m2.Graph.Initializers) != len(m.Graph.Initializers) {
		t.Fatalf("initializers: %d vs %d", len(m2.Graph.Initializers), len(m.Graph.Initializers))
	}
}

func TestRoundTripNumericalIdentity(t *testing.T) {
	g := buildMixedGraph(t)
	x := tensor.Rand(tensor.NewRNG(7), -1, 1, 1, 3, 12, 12)
	want := evalGraph(t, g, x)

	m, err := Export(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	got := evalGraph(t, g2, x)
	if !tensor.AllClose(got, want, 1e-5) {
		t.Fatalf("round-tripped graph diverges: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := buildMixedGraph(t)
	path := filepath.Join(t.TempDir(), "mixed.onnx")
	if err := ExportFile(g, path); err != nil {
		t.Fatal(err)
	}
	g2, err := ImportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Rand(tensor.NewRNG(8), -1, 1, 1, 3, 12, 12)
	if !tensor.AllClose(evalGraph(t, g2, x), evalGraph(t, g, x), 1e-5) {
		t.Fatal("file round-trip diverges")
	}
}

func TestZooModelsRoundTrip(t *testing.T) {
	// Every Figure 2 model must survive export → import structurally.
	// (WRN gets a numerical check; the big ones are structure-only to keep
	// the suite fast.)
	for _, name := range zoo.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, err := zoo.Build(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Export(g)
			if err != nil {
				t.Fatal(err)
			}
			g2, err := Import(m)
			if err != nil {
				t.Fatal(err)
			}
			if len(g2.Nodes) != len(g.Nodes) {
				t.Fatalf("node count %d vs %d", len(g2.Nodes), len(g.Nodes))
			}
			if g2.NumParams() != g.NumParams() {
				t.Fatalf("params %d vs %d", g2.NumParams(), g.NumParams())
			}
			if !tensor.ShapeEq(g2.Outputs[0].Shape, g.Outputs[0].Shape) {
				t.Fatalf("output shape %v vs %v", g2.Outputs[0].Shape, g.Outputs[0].Shape)
			}
		})
	}
}

func TestWRNRoundTripNumerical(t *testing.T) {
	if testing.Short() {
		t.Skip("WRN forward pass x2 is slow; run without -short")
	}
	g, err := zoo.WRN40_2(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Export(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Rand(tensor.NewRNG(9), -1, 1, 1, 3, 32, 32)
	want := evalGraph(t, g, x)
	got := evalGraph(t, g2, x)
	if !tensor.AllClose(got, want, 1e-4) {
		t.Fatalf("WRN round trip diverges: %g", tensor.MaxAbsDiff(got, want))
	}
}

func TestImportGemmTransBZero(t *testing.T) {
	// Gemm with transB=0 must transpose the weight initializer.
	m := &Model{IRVersion: 7, OpsetVersion: 11}
	m.Graph = Graph{
		Name:    "gemmt",
		Inputs:  []ValueInfo{{Name: "x", ElemType: TensorFloat, Shape: []int64{1, 2}}},
		Outputs: []ValueInfo{{Name: "y", ElemType: TensorFloat, Shape: []int64{1, 3}}},
		Initializers: []Tensor{{
			Name: "w", Dims: []int64{2, 3}, DataType: TensorFloat,
			FloatData: []float32{1, 2, 3, 4, 5, 6}, // [K=2, M=3]
		}},
		Nodes: []Node{{
			Name: "gemm", OpType: "Gemm", Inputs: []string{"x", "w"}, Outputs: []string{"y"},
			Attributes: []Attribute{{Name: "transB", Type: AttrInt, I: 0}},
		}},
	}
	g, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	out := evalGraph(t, g, x)
	want := []float32{5, 7, 9} // column sums of w
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestImportRejectsUnsupported(t *testing.T) {
	mk := func(mutate func(*Model)) error {
		m := &Model{IRVersion: 7, OpsetVersion: 11}
		m.Graph = Graph{
			Name:    "bad",
			Inputs:  []ValueInfo{{Name: "x", ElemType: TensorFloat, Shape: []int64{1, 1, 4, 4}}},
			Outputs: []ValueInfo{{Name: "y", ElemType: TensorFloat, Shape: []int64{1, 1, 4, 4}}},
			Nodes:   []Node{{Name: "n", OpType: "Relu", Inputs: []string{"x"}, Outputs: []string{"y"}}},
		}
		mutate(m)
		_, err := Import(m)
		return err
	}
	if err := mk(func(m *Model) { m.Graph.Nodes[0].OpType = "LSTM" }); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("unsupported op not rejected: %v", err)
	}
	if err := mk(func(m *Model) { m.Graph.Inputs[0].Shape = []int64{-1, 1, 4, 4} }); err == nil || !strings.Contains(err.Error(), "dynamic") {
		t.Fatalf("dynamic dim not rejected: %v", err)
	}
	if err := mk(func(m *Model) { m.Graph.Nodes[0].Inputs = []string{"ghost"} }); err == nil {
		t.Fatal("unknown value not rejected")
	}
	if err := mk(func(m *Model) { m.Graph.Outputs[0].Name = "ghost" }); err == nil {
		t.Fatal("unproduced output not rejected")
	}
}

func TestImportClipVariants(t *testing.T) {
	// Clip as attrs (legacy) and as const inputs (opset 11+) both map to
	// Relu6; other bounds are rejected.
	base := func() *Model {
		m := &Model{IRVersion: 7, OpsetVersion: 11}
		m.Graph = Graph{
			Name:    "clip",
			Inputs:  []ValueInfo{{Name: "x", ElemType: TensorFloat, Shape: []int64{1, 4}}},
			Outputs: []ValueInfo{{Name: "y", ElemType: TensorFloat, Shape: []int64{1, 4}}},
		}
		return m
	}
	m := base()
	m.Graph.Nodes = []Node{{Name: "c", OpType: "Clip", Inputs: []string{"x"}, Outputs: []string{"y"},
		Attributes: []Attribute{{Name: "min", Type: AttrFloat, F: 0}, {Name: "max", Type: AttrFloat, F: 6}}}}
	g, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	out := evalGraph(t, g, tensor.FromSlice([]float32{-1, 3, 7, 6}, 1, 4))
	want := []float32{0, 3, 6, 6}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("clip-attr out[%d] = %v", i, v)
		}
	}

	m = base()
	m.Graph.Initializers = []Tensor{
		{Name: "lo", Dims: nil, DataType: TensorFloat, FloatData: []float32{0}},
		{Name: "hi", Dims: nil, DataType: TensorFloat, FloatData: []float32{6}},
	}
	m.Graph.Nodes = []Node{{Name: "c", OpType: "Clip", Inputs: []string{"x", "lo", "hi"}, Outputs: []string{"y"}}}
	if _, err := Import(m); err != nil {
		t.Fatalf("const-input clip rejected: %v", err)
	}

	m = base()
	m.Graph.Nodes = []Node{{Name: "c", OpType: "Clip", Inputs: []string{"x"}, Outputs: []string{"y"},
		Attributes: []Attribute{{Name: "min", Type: AttrFloat, F: -1}, {Name: "max", Type: AttrFloat, F: 1}}}}
	if _, err := Import(m); err == nil {
		t.Fatal("generic clip should be rejected")
	}
}

func TestExportFusedActivationExpands(t *testing.T) {
	r := tensor.NewRNG(41)
	g := graph.New("fused")
	x, _ := g.Input("x", []int{1, 2, 4, 4})
	w, _ := g.Const("w", tensor.HeNormal(r, 2, 2, 1, 1))
	c, _ := g.Add("Conv", "conv", graph.Attrs{"activation": "relu"}, x, w)
	_ = g.MarkOutput(c)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	m, err := Export(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Graph.Nodes) != 2 || m.Graph.Nodes[1].OpType != "Relu" {
		t.Fatalf("fused conv should export as Conv+Relu, got %d nodes", len(m.Graph.Nodes))
	}
	g2, err := Import(m)
	if err != nil {
		t.Fatal(err)
	}
	xs := tensor.Rand(tensor.NewRNG(42), -1, 1, 1, 2, 4, 4)
	if !tensor.AllClose(evalGraph(t, g2, xs), evalGraph(t, g, xs), 1e-5) {
		t.Fatal("fused-activation export/import diverges")
	}
}

// im2colPolicy runs every Conv on conv.im2col, a packing kernel.
type im2colPolicy struct{}

func (im2colPolicy) Name() string { return "test-im2col" }
func (im2colPolicy) Select(n *graph.Node) (ops.Kernel, error) {
	if n.Op == "Conv" {
		return ops.ByName("conv.im2col"), nil
	}
	return runtime.ReferencePolicy{}.Select(n)
}

// TestExportRefusesReleasedConstants: Compile releases the data of the
// weights its packing kernels read, so exporting the compiled graph fails
// and names the constant instead of writing an empty initializer.
func TestExportRefusesReleasedConstants(t *testing.T) {
	g := buildMixedGraph(t)
	if _, err := Export(g); err != nil {
		t.Fatal(err)
	}
	if _, err := runtime.Compile(g, runtime.Options{Policy: im2colPolicy{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Export(g); err == nil || !strings.Contains(err.Error(), `"w1" holds no data`) {
		t.Fatalf("exporting a compiled graph: err = %v, want w1 reported as released", err)
	}
}
