package passes

import "orpheus/internal/graph"

// EliminateIdentity removes Identity and Dropout nodes (Dropout is the
// identity during inference), rewiring consumers to the node's input.
func EliminateIdentity() Pass {
	return newPass("eliminate-identity", func(g *graph.Graph) (bool, error) {
		changed := false
		for {
			var victim *graph.Node
			for _, n := range g.Nodes {
				if n.Op == "Identity" || n.Op == "Dropout" {
					victim = n
					break
				}
			}
			if victim == nil {
				return changed, nil
			}
			g.ReplaceUses(victim.Outputs[0], victim.Inputs[0])
			if err := g.RemoveNode(victim); err != nil {
				return changed, err
			}
			changed = true
		}
	})
}

// EliminateDead removes nodes none of whose outputs are consumed or marked
// as graph outputs, then the constants nothing reads any more — the
// weights of removed nodes and the pre-fold weights FoldBatchNorm
// replaced, which would otherwise be counted by NumParams and held for
// the life of the plan. It iterates so chains of dead nodes disappear in
// one pass execution.
func EliminateDead() Pass {
	return newPass("eliminate-dead", func(g *graph.Graph) (bool, error) {
		changed := false
		for {
			consumers := g.Consumers()
			var victim *graph.Node
			for _, n := range g.Nodes {
				dead := true
				for _, out := range n.Outputs {
					if len(consumers[out]) > 0 || isGraphOutput(g, out) {
						dead = false
						break
					}
				}
				if dead {
					victim = n
					break
				}
			}
			if victim == nil {
				for _, name := range g.ValueNames() {
					v := g.Value(name)
					if !v.IsConst() || len(consumers[v]) > 0 || isGraphOutput(g, v) {
						continue
					}
					if err := g.RemoveValue(v); err != nil {
						return changed, err
					}
					changed = true
				}
				return changed, nil
			}
			if err := g.RemoveNode(victim); err != nil {
				return changed, err
			}
			changed = true
		}
	})
}

// FusePad merges a zero-valued Pad node into the padding attributes of the
// Conv that consumes it, removing one full tensor materialisation.
func FusePad() Pass {
	return newPass("fuse-pad", func(g *graph.Graph) (bool, error) {
		changed := false
		for {
			consumers := g.Consumers()
			var pad *graph.Node
			var conv *graph.Node
			for _, n := range g.Nodes {
				if n.Op != "Pad" || n.Attrs.Float("value", 0) != 0 {
					continue
				}
				c := soleConsumer(g, consumers, n.Outputs[0])
				if c == nil || c.Op != "Conv" || c.Inputs[0] != n.Outputs[0] {
					continue
				}
				pad, conv = n, c
				break
			}
			if pad == nil {
				return changed, nil
			}
			pp := pad.Attrs.Ints("pads", []int{0, 0, 0, 0})
			cp := conv.Attrs.Ints("pads", []int{0, 0, 0, 0})
			conv.Attrs = conv.Attrs.Clone()
			conv.Attrs["pads"] = []int{cp[0] + pp[0], cp[1] + pp[1], cp[2] + pp[2], cp[3] + pp[3]}
			conv.Inputs[0] = pad.Inputs[0]
			if err := g.RemoveNode(pad); err != nil {
				return changed, err
			}
			changed = true
		}
	})
}
