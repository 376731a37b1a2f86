package orpheus

import (
	"context"
	"fmt"
	"math"
	"testing"

	"orpheus/internal/ops"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// prepackers counts the plan steps whose kernel builds cached panels.
func prepackers(p *runtime.Plan) int64 {
	var n int64
	for _, st := range p.Steps() {
		if _, ok := ops.ByName(st.Kernel).(ops.Prepacker); ok {
			n++
		}
	}
	return n
}

// TestCompilePrepacksEagerly: Compile builds every packed panel, one cache
// store per packing layer, so ConstBytes is final when Compile returns.
// Concurrent first Predicts on a fresh MaxBatch-4 session pool — each on
// its own new session — read the panels and store nothing: the first-run
// race on a cache miss is gone, not merely benign.
func TestCompilePrepacksEagerly(t *testing.T) {
	m, err := BuildZooModel("resnet-18")
	if err != nil {
		t.Fatal(err)
	}
	for _, int8 := range []bool{false, true} {
		t.Run(map[bool]string{false: "fp32", true: "int8"}[int8], func(t *testing.T) {
			opts := []CompileOption{WithMaxBatch(4)}
			if int8 {
				opts = append(opts, WithInt8())
			}
			sess, err := m.Compile(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			plan := sess.sessions.Plan()
			packed, stores := sess.ConstBytes(), plan.ConstStores()
			if packed == 0 || stores != prepackers(plan) {
				t.Fatalf("after Compile: %d B packed in %d stores, want > 0 B in one store per packing layer (%d)", packed, stores, prepackers(plan))
			}

			const clients = 4
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				go func(seed uint64) {
					_, err := sess.Predict(context.Background(), RandomTensor(seed, m.InputShape()...))
					errs <- err
				}(uint64(i))
			}
			for i := 0; i < clients; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if got := sess.ConstBytes(); got != packed {
				t.Errorf("ConstBytes %d after the first Predicts, %d after Compile", got, packed)
			}
			if got := plan.ConstStores(); got != stores {
				t.Errorf("the first Predicts stored %d cache entries again", got-stores)
			}
		})
	}
}

// TestCompileReleasesPackedOriginals: a plan holds each weight once. Every
// weight a packing kernel reads is held only as its panels — the value
// keeps its shape but no data — while the weights other kernels read raw
// (depthwise) stay, so on resnet-18 weights + panels + arena come within
// 1.15× of the fp32 parameters, and under int8 (1-byte panels, no fp32
// copy) within 0.4×. Plans that pack nothing ahead of time — the
// reference policy and torch-sim's per-call packing — release nothing.
func TestCompileReleasesPackedOriginals(t *testing.T) {
	for _, model := range []string{"resnet-18", "mobilenet-v1"} {
		m, err := BuildZooModel(model)
		if err != nil {
			t.Fatal(err)
		}
		opt := m.Graph().Clone()
		if err := opt.Finalize(); err != nil {
			t.Fatal(err)
		}
		if _, err := passes.Default().Run(opt); err != nil {
			t.Fatal(err)
		}
		params := opt.NumParams() * 4
		for _, int8 := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/int8=%v", model, int8), func(t *testing.T) {
				var opts []CompileOption
				limit := 1.15
				if int8 {
					opts, limit = append(opts, WithInt8()), 0.4
				}
				sess, err := m.Compile(opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				weights, arena := sess.MemoryFootprint()
				total := weights + arena + sess.ConstBytes()
				t.Logf("weights %.2f MB + packed %.2f MB + arena %.2f MB = %.2f× the %.2f MB of parameters",
					mib(weights), mib(sess.ConstBytes()), mib(arena), float64(total)/float64(params), mib(params))
				if model == "resnet-18" && float64(total) > limit*float64(params) {
					t.Errorf("plan holds %.2f MB, over %.2f× the %.2f MB of parameters", mib(total), limit, mib(params))
				}
				released, kept := 0, 0
				for _, st := range sess.sessions.Plan().Steps() {
					if st.Node.Op != "Conv" && st.Node.Op != "Dense" {
						continue
					}
					w := st.Node.Inputs[1]
					want := opt.Value(w.Name).Shape
					if !tensor.ShapeEq(w.Shape, want) || !tensor.ShapeEq(w.Const.Shape(), want) {
						t.Errorf("%s: weight shape %v / tensor shape %v, want %v", st.Node.Name, w.Shape, w.Const.Shape(), want)
					}
					_, packs := ops.ByName(st.Kernel).(ops.Prepacker)
					switch held := w.Const.Size() == tensor.Volume(want); {
					case packs && !held:
						released++
					case !packs && held:
						kept++
					default:
						t.Errorf("%s on %s: weight data held = %v", st.Node.Name, st.Kernel, held)
					}
				}
				if released == 0 {
					t.Error("no weight released")
				}
				if model == "mobilenet-v1" && kept == 0 {
					t.Error("no depthwise weight kept")
				}
			})
		}
	}

	m, err := BuildZooModel("resnet-18")
	if err != nil {
		t.Fatal(err)
	}
	opt := m.Graph().Clone()
	if err := opt.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := passes.Default().Run(opt); err != nil {
		t.Fatal(err)
	}
	params := opt.NumParams() * 4
	ref, err := runtime.Compile(opt, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.WeightBytes() != params || ref.ConstBytes() != 0 {
		t.Errorf("reference plan holds %d B raw + %d B packed, want all %d B raw", ref.WeightBytes(), ref.ConstBytes(), params)
	}
	torch, err := m.Compile(WithBackend("torch-sim"))
	if err != nil {
		t.Fatal(err)
	}
	defer torch.Close()
	if w, _ := torch.MemoryFootprint(); w != m.Graph().NumParams()*4 || torch.ConstBytes() != 0 {
		t.Errorf("torch-sim plan holds %d B raw + %d B packed, want all %d B raw", w, torch.ConstBytes(), m.Graph().NumParams()*4)
	}
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// TestCompileTwiceLeavesModelIntact: Compile works on a clone of the
// Model's graph that shares its constant tensors, and it releases the data
// of the weights it packs, so it must never write the caller's weights.
// One Model compiled as fp32 and then as int8 gives, in both sessions and
// at every batch size, the outputs of the same compiles of fresh Models,
// bit for bit.
func TestCompileTwiceLeavesModelIntact(t *testing.T) {
	const model, maxBatch = "wrn-40-2", 2
	compile := func(m *Model, opts ...CompileOption) *Session {
		t.Helper()
		s, err := m.Compile(append(opts, WithMaxBatch(maxBatch))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	fresh := func() *Model {
		t.Helper()
		m, err := BuildZooModel(model)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	shared := fresh()
	twice := []*Session{compile(shared), compile(shared, WithInt8())}
	once := []*Session{compile(fresh()), compile(fresh(), WithInt8())}
	inputs := make([]*Tensor, maxBatch)
	for i := range inputs {
		inputs[i] = RandomTensor(uint64(11+i), shared.InputShape()...)
	}
	for i, tier := range []string{"fp32", "int8"} {
		for n := 1; n <= maxBatch; n++ {
			got, err := twice[i].PredictBatch(context.Background(), inputs[:n])
			if err != nil {
				t.Fatal(err)
			}
			want, err := once[i].PredictBatch(context.Background(), inputs[:n])
			if err != nil {
				t.Fatal(err)
			}
			for s := range got {
				for j, v := range got[s].Data() {
					if w := want[s].Data()[j]; math.Float32bits(v) != math.Float32bits(w) {
						t.Fatalf("%s batch %d sample %d: output[%d] = %v after a second compile of the Model, %v from a fresh Model", tier, n, s, j, v, w)
					}
				}
			}
		}
	}
}
