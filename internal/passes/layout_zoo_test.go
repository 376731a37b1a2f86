package passes_test

import (
	"context"
	"testing"

	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/onnx"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// evaluateOrpheus runs an already-optimised graph under the orpheus
// backend's default kernel policy. Those kernels are pinned to the
// reference kernels by the ops and backend batteries; running full zoo
// models on conv.direct here cost two minutes of tier-1 for no extra
// coverage of the pass under test. It compiles a clone: the plan releases
// the weights it packs, and callers go on to export or rerun g.
func evaluateOrpheus(t testing.TB, g *graph.Graph, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	be, err := backend.ByName("orpheus")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := runtime.Compile(g.Clone(), runtime.Options{Policy: be.NewPolicy(false)})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runtime.NewSession(plan).Run(context.Background(), map[string]*tensor.Tensor{g.Inputs[0].Name: x})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		return v.Clone()
	}
	t.Fatal("no outputs")
	return nil
}

// TestConvertLayoutZoo is the acceptance sweep: every zoo model converts
// with zero materialised transposes and matches its NCHW answer to 1e-5.
func TestConvertLayoutZoo(t *testing.T) {
	for _, m := range zoo.Models() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			if testing.Short() && (m.Name == "inception-v3" || m.Name == "resnet-50") {
				t.Skip("short mode")
			}
			g, err := m.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			ref := g.Clone()
			if _, err := passes.Default().Run(ref); err != nil {
				t.Fatal(err)
			}
			opt, stats := passes.RunLayout(t, g)
			if stats.Remaining != 0 {
				t.Errorf("%s: %d transposes remain (stats %+v)", m.Name, stats.Remaining, stats)
			}
			if stats.NHWCNodes == 0 {
				t.Errorf("%s: nothing converted", m.Name)
			}
			x := tensor.Rand(tensor.NewRNG(tensor.SeedFromString(m.Name)), -1, 1, m.InputShape...)
			want := evaluateOrpheus(t, ref, x)
			got := evaluateOrpheus(t, opt, x)
			if d := passes.RelDiff(got, want); d > 1e-5 {
				t.Errorf("%s: NHWC output diverges: rel diff %g", m.Name, d)
			}
		})
	}
}

// TestOptimizePrunesDeadConstants: after the default pipeline every
// constant left in the graph is read by a node or is a graph output —
// BatchNorm folding used to leave each pre-fold weight behind, doubling
// NumParams — and dropping them changes nothing that executes: the output
// is bit-identical to the same pipeline without eliminate-dead, and the
// pruned graph still survives the ONNX export → import round trip.
func TestOptimizePrunesDeadConstants(t *testing.T) {
	for _, name := range []string{"resnet-18", "mobilenet-v1"} {
		t.Run(name, func(t *testing.T) {
			g, err := zoo.Build(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := g.NumParams()
			unpruned := g.Clone()
			keep := passes.Default()
			keep.Passes = keep.Passes[:len(keep.Passes)-1]
			if _, err := keep.Run(unpruned); err != nil {
				t.Fatal(err)
			}
			if unpruned.NumParams() <= before {
				t.Fatalf("fixture folds nothing: %d params before, %d after", before, unpruned.NumParams())
			}
			if _, err := passes.Default().Run(g); err != nil {
				t.Fatal(err)
			}
			if after := g.NumParams(); after > before {
				t.Errorf("NumParams grew under optimisation: %d → %d", before, after)
			}
			consumers := g.Consumers()
			for _, vn := range g.ValueNames() {
				v := g.Value(vn)
				if v.IsConst() && len(consumers[v]) == 0 && !passes.IsGraphOutput(g, v) {
					t.Errorf("constant %q survives optimisation with no reader", vn)
				}
			}
			x := tensor.Rand(tensor.NewRNG(tensor.SeedFromString(name)), -1, 1, g.Inputs[0].Shape...)
			want := evaluateOrpheus(t, unpruned, x)
			if got := evaluateOrpheus(t, g, x); !tensor.AllClose(got, want, 0) {
				t.Errorf("pruning changed the output: max diff %g", tensor.MaxAbsDiff(got, want))
			}
			m, err := onnx.Export(g)
			if err != nil {
				t.Fatal(err)
			}
			back, err := onnx.Import(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := evaluateOrpheus(t, back, x); !tensor.AllClose(got, want, 1e-5) {
				t.Errorf("optimised graph diverges after ONNX round trip: max diff %g", tensor.MaxAbsDiff(got, want))
			}
		})
	}
}
