package onnx

import (
	"fmt"
	"os"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// Export converts an Orpheus graph into an ONNX model. Fused-activation
// attributes (produced by the optimisation passes) are expanded back into
// standalone activation nodes so the output is plain, portable ONNX.
func Export(g *graph.Graph) (*Model, error) {
	m := &Model{IRVersion: 7, OpsetVersion: 11, ProducerName: "orpheus"}
	m.Graph.Name = g.Name
	for _, in := range g.Inputs {
		m.Graph.Inputs = append(m.Graph.Inputs, valueInfo(in))
	}
	for _, out := range g.Outputs {
		m.Graph.Outputs = append(m.Graph.Outputs, valueInfo(out))
	}
	// Initializers in stable (sorted-name) order.
	for _, name := range g.ValueNames() {
		v := g.Value(name)
		if !v.IsConst() {
			continue
		}
		if v.Const.Size() != tensor.Volume(v.Const.Shape()) {
			return nil, fmt.Errorf("onnx: constant %q holds no data (a compiled plan released it; export the graph before Compile)", name)
		}
		dims := make([]int64, len(v.Const.Shape()))
		for i, d := range v.Const.Shape() {
			dims[i] = int64(d)
		}
		m.Graph.Initializers = append(m.Graph.Initializers, Tensor{
			Name: name, Dims: dims, DataType: TensorFloat, FloatData: v.Const.Data(),
		})
	}
	for _, n := range g.Nodes {
		nodes, extraInits, err := exportNode(n)
		if err != nil {
			return nil, fmt.Errorf("onnx: exporting node %q: %w", n.Name, err)
		}
		m.Graph.Nodes = append(m.Graph.Nodes, nodes...)
		m.Graph.Initializers = append(m.Graph.Initializers, extraInits...)
	}
	return m, nil
}

// ExportFile writes g to path as an ONNX file.
func ExportFile(g *graph.Graph, path string) error {
	m, err := Export(g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, m.Marshal(), 0o644)
}

func valueInfo(v *graph.Value) ValueInfo {
	shape := make([]int64, len(v.Shape))
	for i, d := range v.Shape {
		shape[i] = int64(d)
	}
	return ValueInfo{Name: v.Name, ElemType: TensorFloat, Shape: shape}
}

func ints64(xs []int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

func exportNode(n *graph.Node) ([]Node, []Tensor, error) {
	inputs := make([]string, len(n.Inputs))
	for i, in := range n.Inputs {
		inputs[i] = in.Name
	}
	outputs := make([]string, len(n.Outputs))
	for i, out := range n.Outputs {
		outputs[i] = out.Name
	}
	base := Node{Name: n.Name, Inputs: inputs, Outputs: outputs}

	var extra []Tensor
	switch n.Op {
	case "Conv":
		base.OpType = "Conv"
		base.Attributes = []Attribute{
			{Name: "strides", Type: AttrInts, Ints: ints64(n.Attrs.Ints("strides", []int{1, 1}))},
			{Name: "pads", Type: AttrInts, Ints: ints64(n.Attrs.Ints("pads", []int{0, 0, 0, 0}))},
			{Name: "dilations", Type: AttrInts, Ints: ints64(n.Attrs.Ints("dilations", []int{1, 1}))},
			{Name: "group", Type: AttrInt, I: int64(n.Attrs.Int("group", 1))},
		}
	case "Dense":
		base.OpType = "Gemm"
		base.Attributes = []Attribute{
			{Name: "alpha", Type: AttrFloat, F: 1},
			{Name: "beta", Type: AttrFloat, F: 1},
			{Name: "transB", Type: AttrInt, I: 1},
		}
	case "BatchNorm":
		base.OpType = "BatchNormalization"
		base.Attributes = []Attribute{
			{Name: "epsilon", Type: AttrFloat, F: float32(n.Attrs.Float("epsilon", 1e-5))},
		}
	case "Relu":
		base.OpType = "Relu"
	case "Relu6":
		base.OpType = "Clip"
		base.Attributes = []Attribute{
			{Name: "min", Type: AttrFloat, F: 0},
			{Name: "max", Type: AttrFloat, F: 6},
		}
	case "LeakyRelu":
		base.OpType = "LeakyRelu"
		base.Attributes = []Attribute{
			{Name: "alpha", Type: AttrFloat, F: float32(n.Attrs.Float("alpha", 0.01))},
		}
	case "Sigmoid":
		base.OpType = "Sigmoid"
	case "Softmax":
		base.OpType = "Softmax"
		base.Attributes = []Attribute{{Name: "axis", Type: AttrInt, I: int64(n.Attrs.Int("axis", 1))}}
	case "Add", "Mul", "Identity":
		base.OpType = n.Op
	case "Dropout":
		base.OpType = "Dropout"
	case "Concat":
		base.OpType = "Concat"
		base.Attributes = []Attribute{{Name: "axis", Type: AttrInt, I: int64(n.Attrs.Int("axis", 1))}}
	case "Flatten":
		base.OpType = "Flatten"
		base.Attributes = []Attribute{{Name: "axis", Type: AttrInt, I: int64(n.Attrs.Int("axis", 1))}}
	case "MaxPool", "AveragePool":
		base.OpType = n.Op
		base.Attributes = []Attribute{
			{Name: "kernel_shape", Type: AttrInts, Ints: ints64(n.Attrs.Ints("kernel", nil))},
			{Name: "strides", Type: AttrInts, Ints: ints64(n.Attrs.Ints("strides", n.Attrs.Ints("kernel", nil)))},
			{Name: "pads", Type: AttrInts, Ints: ints64(n.Attrs.Ints("pads", []int{0, 0, 0, 0}))},
		}
		if n.Op == "AveragePool" && n.Attrs.Bool("count_include_pad", false) {
			base.Attributes = append(base.Attributes, Attribute{Name: "count_include_pad", Type: AttrInt, I: 1})
		}
	case "GlobalAveragePool":
		base.OpType = "GlobalAveragePool"
	case "Reshape":
		base.OpType = "Reshape"
		shape := ints64(n.Attrs.Ints("shape", nil))
		shapeName := n.Name + ".shape"
		extra = append(extra, Tensor{
			Name: shapeName, Dims: []int64{int64(len(shape))}, DataType: TensorInt64, Int64Data: shape,
		})
		base.Inputs = append(base.Inputs, shapeName)
	case "Pad":
		base.OpType = "Pad"
		p := n.Attrs.Ints("pads", nil)
		base.Attributes = []Attribute{
			{Name: "mode", Type: AttrString, S: "constant"},
			// ONNX 4-D pads: [n_begin, c_begin, h_begin, w_begin, n_end, c_end, h_end, w_end].
			{Name: "pads", Type: AttrInts, Ints: []int64{0, 0, int64(p[0]), int64(p[1]), 0, 0, int64(p[2]), int64(p[3])}},
			{Name: "value", Type: AttrFloat, F: float32(n.Attrs.Float("value", 0))},
		}
	default:
		return nil, nil, fmt.Errorf("op %q has no ONNX mapping", n.Op)
	}

	// Expand a fused activation into a standalone ONNX node.
	act := n.Attrs.Str("activation", "")
	if act == "" {
		return []Node{base}, extra, nil
	}
	mid := n.Outputs[0].Name + ".prefused"
	actNode := Node{Name: n.Name + ".act", Inputs: []string{mid}, Outputs: []string{n.Outputs[0].Name}}
	switch act {
	case "relu":
		actNode.OpType = "Relu"
	case "relu6":
		actNode.OpType = "Clip"
		actNode.Attributes = []Attribute{{Name: "min", Type: AttrFloat, F: 0}, {Name: "max", Type: AttrFloat, F: 6}}
	case "leakyrelu":
		actNode.OpType = "LeakyRelu"
		actNode.Attributes = []Attribute{{Name: "alpha", Type: AttrFloat, F: float32(n.Attrs.Float("alpha", 0.01))}}
	default:
		return nil, nil, fmt.Errorf("fused activation %q has no ONNX mapping", act)
	}
	base.Outputs = []string{mid}
	return []Node{base, actNode}, extra, nil
}
