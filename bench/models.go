package main

import (
	"fmt"

	"orpheus"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// tinyCNNName is the serve-http model: small enough (≈0.22 MFLOP, tens of
// microseconds) that the serving plane, not the kernels, is most of a
// request.
const tinyCNNName = "tiny-cnn"

// buildGraph constructs a benchmark model by name: tiny-cnn or a zoo model.
func buildGraph(name string) (*graph.Graph, error) {
	if name == tinyCNNName {
		return tinyCNN()
	}
	g, err := zoo.Build(name, 1)
	if err != nil {
		return nil, err
	}
	return g, stripSoftmax(g)
}

// stripSoftmax makes a zoo model emit its logits. The zoo's synthetic
// weights saturate resnet-18's softmax to one-hot on every input, which
// would reduce the per-op output check to "same top-1"; on logits the
// check sees every output value. The removed node is ~1000 exps per op.
func stripSoftmax(g *graph.Graph) error {
	for _, n := range g.Nodes {
		if n.Op == "Softmax" && len(g.Outputs) == 1 && n.Outputs[0] == g.Outputs[0] {
			g.ReplaceUses(n.Outputs[0], n.Inputs[0])
			if err := g.RemoveNode(n); err != nil {
				return err
			}
			return g.Finalize()
		}
	}
	return fmt.Errorf("%s: no trailing Softmax to strip", g.Name)
}

// buildModel is buildGraph behind the public facade.
func buildModel(name string) (*orpheus.Model, error) {
	g, err := buildGraph(name)
	if err != nil {
		return nil, err
	}
	return orpheus.FromGraph(g), nil
}

// tinyCNN builds 1×3×32×32 → Conv3×3×16/s2+ReLU → GAP → Dense10 → Softmax
// with fixed-seed weights. The stride keeps compute at a fifth of a
// loopback request; at stride 1 it is more than half (bench/README.md).
func tinyCNN() (*graph.Graph, error) {
	r := tensor.NewRNG(tensor.SeedFromString(tinyCNNName))
	g := graph.New(tinyCNNName)
	var err error
	add := func(op, name string, attrs graph.Attrs, ins ...*graph.Value) *graph.Value {
		if err != nil {
			return nil
		}
		var v *graph.Value
		v, err = g.Add(op, name, attrs, ins...)
		return v
	}
	konst := func(name string, t *tensor.Tensor) *graph.Value {
		if err != nil {
			return nil
		}
		var v *graph.Value
		v, err = g.Const(name, t)
		return v
	}
	x, err := g.Input("input", []int{1, 3, 32, 32})
	w := konst("conv.weight", tensor.HeNormal(r, 16, 3, 3, 3))
	c := add("Conv", "conv", graph.Attrs{"strides": []int{2, 2}, "pads": []int{1, 1, 1, 1}}, x, w)
	rl := add("Relu", "relu", nil, c)
	gap := add("GlobalAveragePool", "gap", nil, rl)
	fl := add("Flatten", "flatten", graph.Attrs{"axis": 1}, gap)
	wf := konst("fc.weight", tensor.HeNormal(r, 10, 16))
	fc := add("Dense", "fc", nil, fl, wf)
	sm := add("Softmax", "prob", nil, fc)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", tinyCNNName, err)
	}
	if err := g.MarkOutput(sm); err != nil {
		return nil, err
	}
	if err := g.Finalize(); err != nil {
		return nil, fmt.Errorf("finalising %s: %w", tinyCNNName, err)
	}
	return g, nil
}
