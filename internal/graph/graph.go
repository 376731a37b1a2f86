// Package graph defines the Orpheus computation-graph intermediate
// representation: a directed acyclic graph of operator nodes over named
// values. Models imported from ONNX, built programmatically (internal/zoo),
// or produced by the optimisation passes (internal/passes) all use this IR;
// the runtime executes it.
//
// A Value is a named tensor slot: a graph input, a constant (weight), or
// the output of a node. A Node applies one operator to input values and
// produces output values. Operator semantics (shape inference, kernels)
// live in internal/ops and are attached through the registry in this
// package so graph does not depend on ops.
package graph

import (
	"fmt"
	"sort"

	"orpheus/internal/tensor"
)

// Value is a named tensor slot in a graph.
type Value struct {
	Name  string
	Shape []int          // inferred or declared shape; nil until inference
	Const *tensor.Tensor // non-nil for weights/initialisers

	// Batched marks a graph input whose leading dimension is a batch of
	// independent samples (the NCHW/[N,K] convention used throughout
	// Orpheus). Rebatch rewrites that dimension; shape inference then
	// propagates the new batch through the graph. Input sets it for every
	// input of rank ≥ 2 (rank-1 inputs are treated as per-model vectors,
	// not batches of scalars); override it for inputs that deviate from
	// the convention.
	Batched bool

	// Producer is the node that outputs this value, nil for graph inputs
	// and constants.
	Producer *Node
}

// IsConst reports whether the value is a constant (weight/initialiser).
func (v *Value) IsConst() bool { return v.Const != nil }

// Node is a single operator application.
type Node struct {
	Name    string
	Op      string // operator type, e.g. "Conv", "Relu"
	Attrs   Attrs
	Inputs  []*Value
	Outputs []*Value
}

// Graph is a DAG of nodes over values. Build one with New, Input, Const and
// Add, mark result values with MarkOutput, then call Finalize.
type Graph struct {
	Name    string
	Nodes   []*Node
	Inputs  []*Value
	Outputs []*Value

	values map[string]*Value
}

// New returns an empty graph.
func New(name string) *Graph {
	return &Graph{Name: name, values: make(map[string]*Value)}
}

// Input declares a graph input with the given shape and returns its value.
func (g *Graph) Input(name string, shape []int) (*Value, error) {
	v, err := g.newValue(name)
	if err != nil {
		return nil, err
	}
	v.Shape = copyShape(shape)
	v.Batched = len(shape) >= 2
	g.Inputs = append(g.Inputs, v)
	return v, nil
}

// Rebatch sets the leading (batch) dimension of every batched graph input
// to n and re-runs shape inference, so every downstream value shape carries
// the new batch. The graph's shape functions treat the leading dimension
// symbolically — they propagate whatever N the inputs declare — which is
// what makes one graph definition serve any runtime batch size.
func (g *Graph) Rebatch(n int) error {
	if n < 1 {
		return fmt.Errorf("graph %q: batch %d < 1", g.Name, n)
	}
	for _, in := range g.Inputs {
		if in.Batched && len(in.Shape) > 0 {
			in.Shape[0] = n
		}
	}
	if err := g.TopoSort(); err != nil {
		return err
	}
	return g.InferShapes()
}

// copyShape copies a shape, returning a non-nil (possibly empty) slice so
// that "scalar" (rank 0) is distinguishable from "shape not yet inferred"
// (nil).
func copyShape(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}

// Const declares a constant (weight) value holding t.
func (g *Graph) Const(name string, t *tensor.Tensor) (*Value, error) {
	v, err := g.newValue(name)
	if err != nil {
		return nil, err
	}
	v.Const = t
	v.Shape = copyShape(t.Shape())
	return v, nil
}

// Add appends a single-output node applying op to the inputs and returns the
// output value, named "<name>_out".
func (g *Graph) Add(op, name string, attrs Attrs, inputs ...*Value) (*Value, error) {
	outs, err := g.AddMulti(op, name, attrs, inputs, []string{name + "_out"})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// AddMulti appends a node with explicitly named outputs.
func (g *Graph) AddMulti(op, name string, attrs Attrs, inputs []*Value, outNames []string) ([]*Value, error) {
	if op == "" {
		return nil, fmt.Errorf("graph %q: node %q has empty op", g.Name, name)
	}
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("graph %q: node %q input %d is nil", g.Name, name, i)
		}
		if g.values[in.Name] != in {
			return nil, fmt.Errorf("graph %q: node %q input %q does not belong to this graph", g.Name, name, in.Name)
		}
	}
	if attrs == nil {
		attrs = Attrs{}
	}
	n := &Node{Name: name, Op: op, Attrs: attrs, Inputs: append([]*Value(nil), inputs...)}
	for _, on := range outNames {
		v, err := g.newValue(on)
		if err != nil {
			return nil, err
		}
		v.Producer = n
		n.Outputs = append(n.Outputs, v)
	}
	g.Nodes = append(g.Nodes, n)
	return n.Outputs, nil
}

// MarkOutput declares v as a graph output.
func (g *Graph) MarkOutput(v *Value) error {
	if g.values[v.Name] != v {
		return fmt.Errorf("graph %q: output %q does not belong to this graph", g.Name, v.Name)
	}
	for _, o := range g.Outputs {
		if o == v {
			return nil
		}
	}
	g.Outputs = append(g.Outputs, v)
	return nil
}

// Value returns the value with the given name, or nil.
func (g *Graph) Value(name string) *Value { return g.values[name] }

// ValueNames returns all value names in sorted order (for stable listings).
func (g *Graph) ValueNames() []string {
	names := make([]string, 0, len(g.values))
	for n := range g.values {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (g *Graph) newValue(name string) (*Value, error) {
	if name == "" {
		return nil, fmt.Errorf("graph %q: empty value name", g.Name)
	}
	if _, dup := g.values[name]; dup {
		return nil, fmt.Errorf("graph %q: duplicate value name %q", g.Name, name)
	}
	v := &Value{Name: name}
	g.values[name] = v
	return v, nil
}

// Consumers returns, for every value, the nodes that read it. Recomputed on
// demand; passes call it after each mutation.
func (g *Graph) Consumers() map[*Value][]*Node {
	m := make(map[*Value][]*Node)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			m[in] = append(m[in], n)
		}
	}
	return m
}

// TopoSort orders g.Nodes topologically (inputs before consumers). It
// returns an error if the graph contains a cycle.
func (g *Graph) TopoSort() error {
	indeg := make(map[*Node]int, len(g.Nodes))
	dependents := make(map[*Node][]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if p := in.Producer; p != nil {
				indeg[n]++
				dependents[p] = append(dependents[p], n)
			}
		}
	}
	// Seed the queue in current node order for stability.
	queue := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	sorted := make([]*Node, 0, len(g.Nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		sorted = append(sorted, n)
		for _, d := range dependents[n] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(sorted) != len(g.Nodes) {
		return fmt.Errorf("graph %q: cycle detected (%d of %d nodes sorted)", g.Name, len(sorted), len(g.Nodes))
	}
	g.Nodes = sorted
	return nil
}

// Validate checks structural invariants: node inputs exist and are
// produced, constants have tensors, outputs are reachable, no cycles.
func (g *Graph) Validate() error {
	if err := g.TopoSort(); err != nil {
		return err
	}
	produced := make(map[*Value]bool)
	for _, v := range g.Inputs {
		produced[v] = true
	}
	for _, v := range g.values {
		if v.IsConst() {
			produced[v] = true
		}
	}
	for _, n := range g.Nodes {
		if len(n.Outputs) == 0 {
			return fmt.Errorf("graph %q: node %q has no outputs", g.Name, n.Name)
		}
		for _, in := range n.Inputs {
			if !produced[in] {
				return fmt.Errorf("graph %q: node %q reads %q before it is produced", g.Name, n.Name, in.Name)
			}
		}
		for _, out := range n.Outputs {
			if out.Producer != n {
				return fmt.Errorf("graph %q: output %q of node %q has wrong producer", g.Name, out.Name, n.Name)
			}
			produced[out] = true
		}
	}
	if len(g.Outputs) == 0 {
		return fmt.Errorf("graph %q: no outputs marked", g.Name)
	}
	for _, o := range g.Outputs {
		if !produced[o] {
			return fmt.Errorf("graph %q: output %q is never produced", g.Name, o.Name)
		}
	}
	return nil
}

// RemoveNode deletes n, which must have no remaining consumers of its
// outputs (callers rewire uses first with ReplaceUses).
func (g *Graph) RemoveNode(n *Node) error {
	consumers := g.Consumers()
	for _, out := range n.Outputs {
		if len(consumers[out]) > 0 {
			return fmt.Errorf("graph %q: cannot remove node %q: output %q still consumed", g.Name, n.Name, out.Name)
		}
		for _, o := range g.Outputs {
			if o == out {
				return fmt.Errorf("graph %q: cannot remove node %q: output %q is a graph output", g.Name, n.Name, out.Name)
			}
		}
	}
	for i, m := range g.Nodes {
		if m == n {
			g.Nodes = append(g.Nodes[:i], g.Nodes[i+1:]...)
			for _, out := range n.Outputs {
				delete(g.values, out.Name)
			}
			return nil
		}
	}
	return fmt.Errorf("graph %q: node %q not found", g.Name, n.Name)
}

// RemoveValue deletes the constant v, which no node may read and which
// must not be a graph output (rewrites that replace a weight leave the
// old one behind; passes drop it with this once nothing refers to it).
func (g *Graph) RemoveValue(v *Value) error {
	if g.values[v.Name] != v || !v.IsConst() {
		return fmt.Errorf("graph %q: cannot remove value %q: not a constant of this graph", g.Name, v.Name)
	}
	for _, o := range g.Outputs {
		if o == v {
			return fmt.Errorf("graph %q: cannot remove constant %q: it is a graph output", g.Name, v.Name)
		}
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == v {
				return fmt.Errorf("graph %q: cannot remove constant %q: node %q reads it", g.Name, v.Name, n.Name)
			}
		}
	}
	delete(g.values, v.Name)
	return nil
}

// ReplaceUses rewires every read of old to read new instead, including the
// graph output list.
func (g *Graph) ReplaceUses(old, new *Value) {
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in == old {
				n.Inputs[i] = new
			}
		}
	}
	for i, o := range g.Outputs {
		if o == old {
			g.Outputs[i] = new
		}
	}
}

// Finalize validates the graph and runs shape inference. Call it after
// construction and after any pass pipeline.
func (g *Graph) Finalize() error {
	if err := g.Validate(); err != nil {
		return err
	}
	return g.InferShapes()
}

// NumParams returns the total number of elements the constant values hold
// (a constant a compiled plan released after packing holds none).
func (g *Graph) NumParams() int64 {
	var n int64
	for _, v := range g.values {
		if v.IsConst() {
			n += int64(v.Const.Size())
		}
	}
	return n
}

// OpCounts returns how many nodes of each operator type the graph has.
func (g *Graph) OpCounts() map[string]int {
	m := make(map[string]int)
	for _, n := range g.Nodes {
		m[n.Op]++
	}
	return m
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%s: %d nodes, %d inputs, %d outputs, %d params)",
		g.Name, len(g.Nodes), len(g.Inputs), len(g.Outputs), g.NumParams())
}
