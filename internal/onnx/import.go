package onnx

import (
	"fmt"
	"math"
	"os"

	"orpheus/internal/graph"
	_ "orpheus/internal/ops" // register operator shape functions
	"orpheus/internal/tensor"
)

// Import converts an ONNX model into an Orpheus graph, mapping the ONNX
// operator set onto the Orpheus operator library and materialising
// initialisers as constants. Shape-carrying int64 initialisers (Reshape
// targets, Clip bounds) are absorbed into attributes.
func Import(m *Model) (*graph.Graph, error) {
	og := m.Graph
	g := graph.New(og.Name)

	// Initialisers become constants; int64 ones are kept aside for
	// attribute absorption.
	intInits := map[string][]int64{}
	isInit := map[string]bool{}
	for i := range og.Initializers {
		t := &og.Initializers[i]
		isInit[t.Name] = true
		switch t.DataType {
		case TensorFloat:
			shape, vol, err := shapeOf(t.Dims)
			if err != nil {
				return nil, fmt.Errorf("onnx: initializer %q: %w", t.Name, err)
			}
			if len(t.FloatData) != vol {
				return nil, fmt.Errorf("onnx: initializer %q has %d floats for shape %v", t.Name, len(t.FloatData), t.Dims)
			}
			if _, err := g.Const(t.Name, tensor.FromSlice(t.FloatData, shape...)); err != nil {
				return nil, err
			}
		case TensorInt64:
			intInits[t.Name] = t.Int64Data
		default:
			return nil, fmt.Errorf("onnx: initializer %q has unsupported type %d", t.Name, t.DataType)
		}
	}

	// Graph inputs (excluding initialisers re-listed as inputs, as older
	// exporters do).
	for _, vi := range og.Inputs {
		if isInit[vi.Name] {
			continue
		}
		for i, d := range vi.Shape {
			if d < 0 {
				return nil, fmt.Errorf("onnx: input %q has dynamic dimension %d (unsupported)", vi.Name, i)
			}
		}
		shape, _, err := shapeOf(vi.Shape)
		if err != nil {
			return nil, fmt.Errorf("onnx: input %q: %w", vi.Name, err)
		}
		if _, err := g.Input(vi.Name, shape); err != nil {
			return nil, err
		}
	}

	for i := range og.Nodes {
		if err := importNode(g, &og.Nodes[i], i, intInits); err != nil {
			return nil, err
		}
	}

	for _, vo := range og.Outputs {
		v := g.Value(vo.Name)
		if v == nil {
			return nil, fmt.Errorf("onnx: graph output %q is never produced", vo.Name)
		}
		if err := g.MarkOutput(v); err != nil {
			return nil, err
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, fmt.Errorf("onnx: imported graph invalid: %w", err)
	}
	return g, nil
}

// shapeOf converts ONNX dims to a shape and its volume. The dims come from
// the file, so a negative dim and a volume that overflows an int are
// errors, not panics or a silently wrapped size.
func shapeOf(dims []int64) ([]int, int, error) {
	shape := make([]int, len(dims))
	vol := 1
	for i, d := range dims {
		if d < 0 {
			return nil, 0, fmt.Errorf("negative dimension in shape %v", dims)
		}
		if d > math.MaxInt || d > 0 && int64(vol) > math.MaxInt/d {
			return nil, 0, fmt.Errorf("shape %v overflows", dims)
		}
		shape[i] = int(d)
		vol *= int(d)
	}
	return shape, vol, nil
}

// ImportFile reads an ONNX file into an Orpheus graph.
func ImportFile(path string) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("onnx: parsing %s: %w", path, err)
	}
	return Import(m)
}

func importNode(g *graph.Graph, n *Node, idx int, intInits map[string][]int64) error {
	name := n.Name
	if name == "" {
		name = fmt.Sprintf("%s_%d", n.OpType, idx)
	}
	resolve := func(names []string) ([]*graph.Value, error) {
		out := make([]*graph.Value, 0, len(names))
		for _, vn := range names {
			if vn == "" {
				continue // optional ONNX input slot
			}
			v := g.Value(vn)
			if v == nil {
				return nil, fmt.Errorf("onnx: node %q reads unknown value %q", name, vn)
			}
			out = append(out, v)
		}
		return out, nil
	}

	attrInt := func(key string, def int64) int64 {
		if a := n.Attr(key); a != nil {
			return a.I
		}
		return def
	}
	attrFloat := func(key string, def float32) float32 {
		if a := n.Attr(key); a != nil {
			return a.F
		}
		return def
	}
	attrInts := func(key string) []int {
		a := n.Attr(key)
		if a == nil {
			return nil
		}
		out := make([]int, len(a.Ints))
		for i, v := range a.Ints {
			out[i] = int(v)
		}
		return out
	}

	add := func(op string, attrs graph.Attrs, inputs []*graph.Value) error {
		if len(n.Outputs) < 1 {
			return fmt.Errorf("onnx: node %q has no outputs", name)
		}
		// Dropout and BatchNormalization may declare extra outputs (mask,
		// saved stats); only the first is data and only it may be consumed
		// at inference time.
		_, err := g.AddMulti(op, name, attrs, inputs, n.Outputs[:1])
		return err
	}

	switch n.OpType {
	case "Conv":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		if a := n.Attr("auto_pad"); a != nil && a.S != "" && a.S != "NOTSET" {
			return fmt.Errorf("onnx: node %q uses auto_pad %q (only explicit pads supported)", name, a.S)
		}
		attrs := graph.Attrs{"group": int(attrInt("group", 1))}
		if s := attrInts("strides"); s != nil {
			attrs["strides"] = s
		}
		if p := attrInts("pads"); p != nil {
			attrs["pads"] = p // ONNX 2-D pads are [top, left, bottom, right]
		}
		if d := attrInts("dilations"); d != nil {
			attrs["dilations"] = d
		}
		return add("Conv", attrs, inputs)

	case "Gemm":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		if attrInt("transA", 0) != 0 {
			return fmt.Errorf("onnx: node %q: transA unsupported", name)
		}
		alpha, beta := attrFloat("alpha", 1), attrFloat("beta", 1)
		w := inputs[1]
		if !w.IsConst() {
			return fmt.Errorf("onnx: node %q: Gemm weight must be an initializer", name)
		}
		// Orpheus Dense expects W as [M, K] (transB=1 layout). Convert a
		// transB=0 weight by materialising its transpose.
		if attrInt("transB", 0) == 0 {
			wt := w.Const.Transpose(1, 0)
			nv, err := g.Const(w.Name+".T", wt)
			if err != nil {
				return err
			}
			inputs[1] = nv
			w = nv
		}
		if alpha != 1 {
			scaled := w.Const.Clone()
			scaled.Scale(alpha)
			nv, err := g.Const(w.Name+".alpha", scaled)
			if err != nil {
				return err
			}
			inputs[1] = nv
		}
		if len(inputs) == 3 && beta != 1 {
			b := inputs[2]
			if !b.IsConst() {
				return fmt.Errorf("onnx: node %q: Gemm beta != 1 with non-const bias", name)
			}
			scaled := b.Const.Clone()
			scaled.Scale(beta)
			nv, err := g.Const(b.Name+".beta", scaled)
			if err != nil {
				return err
			}
			inputs[2] = nv
		}
		return add("Dense", graph.Attrs{}, inputs)

	case "BatchNormalization":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		return add("BatchNorm", graph.Attrs{"epsilon": float64(attrFloat("epsilon", 1e-5))}, inputs)

	case "Relu", "Sigmoid", "Identity", "Dropout", "Add", "Mul":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		return add(n.OpType, graph.Attrs{}, inputs)

	case "LeakyRelu":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		return add("LeakyRelu", graph.Attrs{"alpha": float64(attrFloat("alpha", 0.01))}, inputs)

	case "Clip":
		// Bounds come from attributes (opset <= 6) or const inputs (>= 11).
		lo, hi := attrFloat("min", -3.4e38), attrFloat("max", 3.4e38)
		if len(n.Inputs) >= 2 && n.Inputs[1] != "" {
			if v := g.Value(n.Inputs[1]); v != nil && v.IsConst() && v.Const.Size() == 1 {
				lo = v.Const.Data()[0]
			}
		}
		if len(n.Inputs) >= 3 && n.Inputs[2] != "" {
			if v := g.Value(n.Inputs[2]); v != nil && v.IsConst() && v.Const.Size() == 1 {
				hi = v.Const.Data()[0]
			}
		}
		if lo != 0 || hi != 6 {
			return fmt.Errorf("onnx: node %q: Clip(%g, %g) unsupported (only ReLU6)", name, lo, hi)
		}
		inputs, err := resolve(n.Inputs[:1])
		if err != nil {
			return err
		}
		return add("Relu6", graph.Attrs{}, inputs)

	case "Softmax", "Concat", "Flatten":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		def := int64(1)
		return add(n.OpType, graph.Attrs{"axis": int(attrInt("axis", def))}, inputs)

	case "MaxPool", "AveragePool":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		kernel := attrInts("kernel_shape")
		if kernel == nil {
			return fmt.Errorf("onnx: node %q: kernel_shape required", name)
		}
		if attrInt("ceil_mode", 0) != 0 {
			return fmt.Errorf("onnx: node %q: ceil_mode unsupported", name)
		}
		attrs := graph.Attrs{"kernel": kernel}
		if s := attrInts("strides"); s != nil {
			attrs["strides"] = s
		}
		if p := attrInts("pads"); p != nil {
			attrs["pads"] = p
		}
		if attrInt("count_include_pad", 0) != 0 {
			attrs["count_include_pad"] = true
		}
		return add(n.OpType, attrs, inputs)

	case "GlobalAveragePool":
		inputs, err := resolve(n.Inputs)
		if err != nil {
			return err
		}
		return add("GlobalAveragePool", graph.Attrs{}, inputs)

	case "Reshape":
		inputs, err := resolve(n.Inputs[:1])
		if err != nil {
			return err
		}
		var shape []int
		if len(n.Inputs) >= 2 {
			ints, ok := intInits[n.Inputs[1]]
			if !ok {
				return fmt.Errorf("onnx: node %q: Reshape target must be an int64 initializer", name)
			}
			shape = make([]int, len(ints))
			for i, v := range ints {
				shape[i] = int(v)
			}
		} else if a := n.Attr("shape"); a != nil {
			shape = make([]int, len(a.Ints))
			for i, v := range a.Ints {
				shape[i] = int(v)
			}
		}
		if shape == nil {
			return fmt.Errorf("onnx: node %q: Reshape without target shape", name)
		}
		return add("Reshape", graph.Attrs{"shape": shape}, inputs)

	case "Pad":
		inputs, err := resolve(n.Inputs[:1])
		if err != nil {
			return err
		}
		if a := n.Attr("mode"); a != nil && a.S != "" && a.S != "constant" {
			return fmt.Errorf("onnx: node %q: Pad mode %q unsupported", name, a.S)
		}
		p := attrInts("pads")
		if len(p) != 8 {
			return fmt.Errorf("onnx: node %q: expected 8 pad values for 4-D input, got %v", name, p)
		}
		if p[0] != 0 || p[1] != 0 || p[4] != 0 || p[5] != 0 {
			return fmt.Errorf("onnx: node %q: padding batch/channel dims unsupported: %v", name, p)
		}
		return add("Pad", graph.Attrs{
			"pads":  []int{p[2], p[3], p[6], p[7]},
			"value": float64(attrFloat("value", 0)),
		}, inputs)

	default:
		return fmt.Errorf("onnx: operator %q (node %q) is not supported by the importer", n.OpType, name)
	}
}
