// Package passes implements the Orpheus graph-simplification pipeline that
// runs between model import and execution ("apply simplifications to the
// computation graph", §I of the paper).
//
// Available passes:
//
//   - EliminateIdentity: drops Identity and inference-mode Dropout nodes.
//   - FusePad: merges zero-valued Pad nodes into the following Conv's
//     padding attributes.
//   - FoldBatchNorm: folds inference BatchNorm into the preceding Conv or
//     Dense weights and bias.
//   - FuseActivation: attaches Relu/Relu6/LeakyRelu to the producing Conv,
//     Dense or Add node as a fused epilogue.
//   - FoldConstants: evaluates nodes whose inputs are all constant.
//   - EliminateDead: removes nodes whose results are never used and
//     constants nothing reads.
//
// Pipeline runs a pass list to a fixed point. Default() returns the
// standard Orpheus pipeline in dependency order.
package passes

import (
	"fmt"

	"orpheus/internal/graph"
)

// Pass is a single graph-to-graph rewrite.
type Pass interface {
	// Name identifies the pass in logs and experiment reports.
	Name() string
	// Run mutates g in place and reports whether anything changed.
	Run(g *graph.Graph) (bool, error)
}

type passFunc struct {
	name string
	run  func(g *graph.Graph) (bool, error)
}

func (p passFunc) Name() string                     { return p.name }
func (p passFunc) Run(g *graph.Graph) (bool, error) { return p.run(g) }
func newPass(name string, run func(g *graph.Graph) (bool, error)) Pass {
	return passFunc{name: name, run: run}
}

// Pipeline applies passes repeatedly until none reports a change, then
// re-finalises the graph (validation + shape inference).
type Pipeline struct {
	Passes []Pass
	// MaxIterations bounds the fixed-point loop; the default 10 comfortably
	// covers real models (one or two rounds settle them).
	MaxIterations int
}

// Default returns the standard Orpheus optimisation pipeline.
func Default() *Pipeline {
	return &Pipeline{Passes: []Pass{
		EliminateIdentity(),
		FusePad(),
		FoldBatchNorm(),
		FuseActivation(),
		FoldConstants(),
		EliminateDead(),
	}}
}

// Run optimises g in place and returns the per-pass change counts in
// application order (one entry per pass execution that changed the graph).
func (p *Pipeline) Run(g *graph.Graph) ([]string, error) {
	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 10
	}
	var applied []string
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for _, pass := range p.Passes {
			c, err := pass.Run(g)
			if err != nil {
				return applied, fmt.Errorf("pass %s: %w", pass.Name(), err)
			}
			if c {
				changed = true
				applied = append(applied, pass.Name())
			}
		}
		if !changed {
			break
		}
	}
	if err := g.Finalize(); err != nil {
		return applied, fmt.Errorf("graph invalid after optimisation: %w", err)
	}
	return applied, nil
}

// isGraphOutput reports whether v is one of g's outputs.
func isGraphOutput(g *graph.Graph, v *graph.Value) bool {
	for _, o := range g.Outputs {
		if o == v {
			return true
		}
	}
	return false
}

// soleConsumer returns the single node consuming v, or nil if v has zero or
// multiple consumers or is a graph output.
func soleConsumer(g *graph.Graph, consumers map[*graph.Value][]*graph.Node, v *graph.Value) *graph.Node {
	if isGraphOutput(g, v) {
		return nil
	}
	c := consumers[v]
	if len(c) != 1 {
		return nil
	}
	return c[0]
}
