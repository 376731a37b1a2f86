package ops

import (
	"fmt"
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// buildNode constructs a one-node graph over the given input tensors and
// returns the node with shapes inferred.
func buildNode(t testing.TB, op string, attrs graph.Attrs, inputs ...*tensor.Tensor) *graph.Node {
	t.Helper()
	g := graph.New("test")
	vals := make([]*graph.Value, len(inputs))
	for i, in := range inputs {
		v, err := g.Const(fmt.Sprintf("in%d", i), in)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	out, err := g.Add(op, "node", attrs, vals...)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.MarkOutput(out); err != nil {
		t.Fatal(err)
	}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g.Nodes[0]
}

// runKernel executes the named kernel on a one-node graph and returns the
// output tensor.
func runKernel(t testing.TB, kernelName, op string, attrs graph.Attrs, inputs ...*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	n := buildNode(t, op, attrs, inputs...)
	k := ByName(kernelName)
	if k == nil {
		t.Fatalf("kernel %q not registered", kernelName)
	}
	if k.Op() != op {
		t.Fatalf("kernel %q is for op %q, not %q", kernelName, k.Op(), op)
	}
	if !k.Supports(n) {
		t.Fatalf("kernel %q does not support node %v", kernelName, n.Attrs)
	}
	out := tensor.New(n.Outputs[0].Shape...)
	ctx := NewCtx(1)
	if err := k.Run(ctx, n, inputs, []*tensor.Tensor{out}); err != nil {
		t.Fatalf("kernel %q: %v", kernelName, err)
	}
	return out
}

// convCase describes one convolution geometry for the equivalence matrix.
type convCase struct {
	name                   string
	n, cin, h, w           int
	cout, kh, kw           int
	sh, sw                 int
	padT, padL, padB, padR int
	dh, dw                 int
	groups                 int
	bias                   bool
}

func (c convCase) attrs() graph.Attrs {
	return graph.Attrs{
		"strides":   []int{c.sh, c.sw},
		"pads":      []int{c.padT, c.padL, c.padB, c.padR},
		"dilations": []int{c.dh, c.dw},
		"group":     c.groups,
	}
}

func (c convCase) tensors(seed uint64) []*tensor.Tensor {
	r := tensor.NewRNG(seed)
	x := tensor.Rand(r, -1, 1, c.n, c.cin, c.h, c.w)
	w := tensor.Rand(r, -1, 1, c.cout, c.cin/c.groups, c.kh, c.kw)
	if !c.bias {
		return []*tensor.Tensor{x, w}
	}
	b := tensor.Rand(r, -1, 1, c.cout)
	return []*tensor.Tensor{x, w, b}
}

var convMatrix = []convCase{
	{name: "1x1", n: 1, cin: 4, h: 6, w: 6, cout: 8, kh: 1, kw: 1, sh: 1, sw: 1, dh: 1, dw: 1, groups: 1},
	{name: "3x3-pad1", n: 1, cin: 3, h: 8, w: 8, cout: 5, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1, bias: true},
	{name: "3x3-stride2", n: 2, cin: 4, h: 9, w: 9, cout: 6, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "5x5", n: 1, cin: 2, h: 12, w: 10, cout: 3, kh: 5, kw: 5, sh: 1, sw: 1, padT: 2, padL: 2, padB: 2, padR: 2, dh: 1, dw: 1, groups: 1, bias: true},
	{name: "asym-pad", n: 1, cin: 3, h: 7, w: 7, cout: 4, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 0, padB: 0, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "rect-kernel", n: 1, cin: 2, h: 9, w: 11, cout: 4, kh: 1, kw: 3, sh: 1, sw: 1, padT: 0, padL: 1, padB: 0, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "dilated", n: 1, cin: 2, h: 10, w: 10, cout: 3, kh: 3, kw: 3, sh: 1, sw: 1, padT: 2, padL: 2, padB: 2, padR: 2, dh: 2, dw: 2, groups: 1},
	{name: "grouped", n: 1, cin: 8, h: 6, w: 6, cout: 8, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 2, bias: true},
	{name: "depthwise", n: 1, cin: 6, h: 8, w: 8, cout: 6, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 6, bias: true},
	{name: "depthwise-s2", n: 2, cin: 4, h: 9, w: 9, cout: 4, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 4},
	{name: "batch3", n: 3, cin: 3, h: 6, w: 6, cout: 4, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "wide", n: 1, cin: 16, h: 5, w: 5, cout: 24, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1, bias: true},
	{name: "depthwise-m2", n: 1, cin: 3, h: 8, w: 8, cout: 6, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 3, bias: true},
	{name: "depthwise-m2-s2", n: 2, cin: 4, h: 9, w: 9, cout: 8, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 4},
}
