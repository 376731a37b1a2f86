package orpheus

import (
	"context"
	"math"
	"strings"
	"testing"
)

// argmax returns the index of the largest value in v.
func argmax(v []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// relErr is ||a-b|| / ||b|| over the flattened outputs.
func relErr(a, b []float32) float64 {
	var num, den float64
	for i := range a {
		d := float64(a[i] - b[i])
		num += d * d
		den += float64(b[i]) * float64(b[i])
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// TestInt8MatchesFP32OnZoo runs every zoo model under WithInt8 against
// the fp32 plan at every batch size 1 ≤ n ≤ MaxBatch and requires (a)
// top-1 agreement on every sample — the harness acceptance bar is ≥ 99%
// — and (b) a bounded relative error on the raw outputs. The error
// budget is loose by design: the zoo's random weights produce
// near-uniform softmax outputs whose relative error amplifies absolute
// logit noise, and inception-v3's ~94 quantized layers accumulate the
// most of it.
func TestInt8MatchesFP32OnZoo(t *testing.T) {
	const maxBatch = 2
	for _, model := range ZooModels() {
		model := model
		t.Run(model, func(t *testing.T) {
			if testing.Short() && model != "wrn-40-2" && model != "mobilenet-v1" {
				t.Skip("short mode: big models skipped")
			}
			m, err := BuildZooModel(model)
			if err != nil {
				t.Fatal(err)
			}
			fp, err := m.Compile(WithMaxBatch(maxBatch))
			if err != nil {
				t.Fatal(err)
			}
			defer fp.Close()
			q, err := m.Compile(WithMaxBatch(maxBatch), WithInt8())
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()

			// The plan must actually select quantized kernels somewhere —
			// a silent fp32 fallback would pass any tolerance check.
			quantized := false
			for _, line := range q.PlanSummary() {
				if strings.Contains(line, "_int8") {
					quantized = true
					break
				}
			}
			if !quantized {
				t.Fatal("WithInt8 plan selected no quantized kernels")
			}

			for n := 1; n <= maxBatch; n++ {
				inputs := make([]*Tensor, n)
				for i := range inputs {
					inputs[i] = RandomTensor(uint64(7*n+i), m.InputShape()...)
				}
				fpOut, err := fp.PredictBatch(context.Background(), inputs)
				if err != nil {
					t.Fatal(err)
				}
				qOut, err := q.PredictBatch(context.Background(), inputs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range inputs {
					fd, qd := fpOut[i].Data(), qOut[i].Data()
					if af, aq := argmax(fd), argmax(qd); af != aq {
						t.Errorf("n=%d sample %d: top-1 disagrees (fp32 %d, int8 %d)", n, i, af, aq)
					}
					if re := relErr(qd, fd); re > 0.5 {
						t.Errorf("n=%d sample %d: rel error %.4f exceeds budget 0.5", n, i, re)
					}
				}
			}
		})
	}
}

// TestInt8WeightFootprint pins the tentpole's memory claim: the packed
// int8 constants of a conv/dense-heavy model occupy roughly a quarter of
// the fp32 packed panels they replace (int8 bytes vs float32, with
// per-row scale/rowsum metadata on top).
func TestInt8WeightFootprint(t *testing.T) {
	m, err := BuildZooModel("wrn-40-2")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	q, err := m.Compile(WithInt8())
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Compile packs every panel, so the footprints are final already.
	fpBytes, qBytes := fp.ConstBytes(), q.ConstBytes()
	if fpBytes == 0 || qBytes == 0 {
		t.Fatalf("const footprints not populated: fp32 %d, int8 %d", fpBytes, qBytes)
	}
	ratio := float64(fpBytes) / float64(qBytes)
	if ratio < 3 || ratio > 5 {
		t.Errorf("fp32/int8 packed-constant ratio = %.2f (fp32 %d B, int8 %d B), want ~4x", ratio, fpBytes, qBytes)
	}
}

// TestInt8SessionRunAllocFree extends the steady-state zero-alloc
// invariant to quantized plans: activation quantization, panel packing
// and the requantize epilogue must all run out of reused buffers.
func TestInt8SessionRunAllocFree(t *testing.T) {
	m, err := BuildZooModel("wrn-40-2")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.Compile(WithInt8())
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	x := RandomTensor(1, m.InputShape()...)
	dst, err := sess.Predict(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.PredictInto(context.Background(), dst, x); err != nil { // warm-up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(3, func() {
		if _, err := sess.PredictInto(context.Background(), dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state int8 PredictInto allocates %.1f times per run, want 0", avg)
	}
}
