package main

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"orpheus"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// goldenInputs is how many generated inputs per model have a committed
// reference output; a run's pool is a seeded choice of poolSize of them.
const (
	goldenInputs = 16
	poolSize     = 8
)

// Tolerances of the per-op output check.
const (
	fp32MaxAbs = 1e-4
	int8L2Rel  = 0.05
)

//go:embed golden/*.json
var goldenFS embed.FS

// golden holds one model's reference outputs, computed on the reference
// kernels (conv.direct, dense.naive, unfused graph) by -regen-golden.
// Inputs are not stored: input i is regenerated by goldenInput.
type golden struct {
	Model      string      `json:"model"`
	InputShape []int       `json:"input_shape"`
	Outputs    [][]float32 `json:"outputs"`
}

// goldenInput generates input i of the model's golden set.
func goldenInput(model string, shape []int, i int) *orpheus.Tensor {
	return orpheus.RandomTensor(tensor.SeedFromString(fmt.Sprintf("bench/%s/input/%d", model, i)), shape...)
}

func loadGolden(model string) (*golden, error) {
	raw, err := goldenFS.ReadFile("golden/" + model + ".json")
	if err != nil {
		return nil, fmt.Errorf("golden for %s (run -regen-golden): %w", model, err)
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden for %s: %w", model, err)
	}
	if len(g.Outputs) != goldenInputs {
		return nil, fmt.Errorf("golden for %s holds %d outputs, want %d", model, len(g.Outputs), goldenInputs)
	}
	return &g, nil
}

// regenGolden recomputes dir/<model>.json for every benchmark model.
func regenGolden(dir string) error {
	for _, model := range []string{"resnet-18", "mobilenet-v1", tinyCNNName} {
		g, err := buildGraph(model)
		if err != nil {
			return err
		}
		// No backend, no passes: the default policy picks every op's
		// reference kernel on the graph as built.
		plan, err := runtime.Compile(g, runtime.Options{})
		if err != nil {
			return fmt.Errorf("reference plan for %s: %w", model, err)
		}
		sess := runtime.NewSession(plan)
		in, out := plan.InputDescs()[0], plan.OutputDescs()[0]
		gold := golden{Model: model, InputShape: in.Shape}
		for i := 0; i < goldenInputs; i++ {
			outs, err := sess.Run(context.Background(), map[string]*tensor.Tensor{in.Name: goldenInput(model, in.Shape, i)})
			if err != nil {
				return fmt.Errorf("reference run of %s: %w", model, err)
			}
			gold.Outputs = append(gold.Outputs, append([]float32(nil), outs[out.Name].Data()...))
			fmt.Fprintf(os.Stderr, "golden %s %d/%d\n", model, i+1, goldenInputs)
		}
		raw, err := json.Marshal(gold)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, model+".json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// tally counts checked ops and keeps the first failure.
type tally struct {
	attempted, failed int
	err               error
}

// add counts one op; a nil err is a correct one.
func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.err == nil {
			t.err = err
		}
	}
}

// merge folds another tally's counts into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.err == nil {
		t.err = o.err
	}
}

// checkOutput compares one op's output with its reference: fp32 by
// max-abs, int8 by equal top-1 and relative L2 error.
func checkOutput(got, want []float32, int8 bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d values, golden %d", len(got), len(want))
	}
	var maxAbs, refMax, diff2, ref2 float64
	gotTop, wantTop := 0, 0
	for i := range want {
		d := float64(got[i]) - float64(want[i])
		if math.IsNaN(d) {
			return fmt.Errorf("output[%d] is NaN", i)
		}
		maxAbs = math.Max(maxAbs, math.Abs(d))
		diff2 += d * d
		ref2 += float64(want[i]) * float64(want[i])
		refMax = math.Max(refMax, math.Abs(float64(want[i])))
		if got[i] > got[gotTop] {
			gotTop = i
		}
		if want[i] > want[wantTop] {
			wantTop = i
		}
	}
	if !int8 {
		if maxAbs > fp32MaxAbs*refMax {
			return fmt.Errorf("max-abs error %.3g > %g of golden magnitude %.3g", maxAbs, fp32MaxAbs, refMax)
		}
		return nil
	}
	if gotTop != wantTop {
		return fmt.Errorf("int8 top-1 %d, golden %d", gotTop, wantTop)
	}
	if rel := math.Sqrt(diff2 / ref2); rel > int8L2Rel {
		return fmt.Errorf("int8 L2-rel error %.3g > %g", rel, int8L2Rel)
	}
	return nil
}
