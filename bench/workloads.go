package main

import (
	"context"
	"fmt"
	"path/filepath"
	goruntime "runtime"

	"orpheus"
	"orpheus/internal/tensor"
)

// workload is one named set of inputs and the way they are run. Later
// issues refer to workloads by name; the names never change.
type workload struct {
	name  string
	model string
	int8  bool
	// maxBatch is the plan's batch capacity (2 behind the serving
	// batcher, 1 elsewhere).
	maxBatch int
	setup    func(w *workload, e *env) (instance, error)
}

var workloads = []*workload{
	{name: "dense-fp32", model: "resnet-18", maxBatch: 1, setup: setupModel},
	{name: "dense-int8", model: "resnet-18", int8: true, maxBatch: 1, setup: setupModel},
	{name: "depthwise-fp32", model: "mobilenet-v1", maxBatch: 1, setup: setupModel},
	{name: "serve-http", model: tinyCNNName, maxBatch: 2, setup: setupServe},
	{name: "cold-start", model: "resnet-18", maxBatch: 1, setup: setupCold},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// compileOpts are the facade options the workload's model runs under:
// always one worker, the paper's single-thread regime.
func (w *workload) compileOpts() []orpheus.CompileOption {
	opts := []orpheus.CompileOption{orpheus.WithWorkers(1), orpheus.WithMaxBatch(w.maxBatch)}
	if w.int8 {
		opts = append(opts, orpheus.WithInt8())
	}
	return opts
}

// poolInput is one generated input with its reference output.
type poolInput struct {
	in   *orpheus.Tensor
	want []float32
}

// env is what a run hands its workload: the seeded inputs and a scratch
// directory inside the checkout.
type env struct {
	ctx     context.Context
	pool    []poolInput
	scratch string
}

// newEnv draws the run's pool — poolSize of the model's golden inputs, in
// a seeded order that is also the request order — so the same seed gives
// the same inputs and every input has a committed reference output.
func newEnv(w *workload, seed uint64, scratch string) (*env, error) {
	gold, err := loadGolden(w.model)
	if err != nil {
		return nil, err
	}
	order := make([]int, goldenInputs)
	for i := range order {
		order[i] = i
	}
	r := tensor.NewRNG(seed)
	for i := len(order) - 1; i > 0; i-- { // Fisher–Yates
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	e := &env{ctx: context.Background(), scratch: scratch}
	for _, idx := range order[:poolSize] {
		e.pool = append(e.pool, poolInput{in: goldenInput(w.model, gold.InputShape, idx), want: gold.Outputs[idx]})
	}
	return e, nil
}

// instance is a set-up workload. Every loop over it is closed: a client
// issues its next op when the previous one returns.
type instance interface {
	// clients is the number of concurrent closed-loop callers (never more
	// than nproc on the reference container).
	clients() int
	// do runs one op for a client and returns the output, valid until
	// that client's next do.
	do(client int, in *orpheus.Tensor) ([]float32, error)
	// planBytes is weights + arena + derived constants of the plan
	// serving the ops.
	planBytes() int64
	close()
}

// settler is an instance that restores its starting state between ops,
// outside the timer.
type settler interface{ settle() }

func planBytes(s *orpheus.Session) int64 {
	weights, arena := s.MemoryFootprint()
	return weights + arena + s.ConstBytes()
}

// modelInstance is a compiled session driven through PredictInto.
type modelInstance struct {
	ctx  context.Context
	sess *orpheus.Session
	dst  *orpheus.Tensor
}

func setupModel(w *workload, e *env) (instance, error) {
	m, err := buildModel(w.model)
	if err != nil {
		return nil, err
	}
	sess, err := m.Compile(w.compileOpts()...)
	if err != nil {
		return nil, err
	}
	return &modelInstance{ctx: e.ctx, sess: sess, dst: orpheus.NewTensor(sess.Outputs()[0].Shape...)}, nil
}

func (m *modelInstance) clients() int { return 1 }

func (m *modelInstance) do(_ int, in *orpheus.Tensor) ([]float32, error) {
	out, err := m.sess.PredictInto(m.ctx, m.dst, in)
	if err != nil {
		return nil, err
	}
	return out.Data(), nil
}

func (m *modelInstance) planBytes() int64 { return planBytes(m.sess) }
func (m *modelInstance) close()           { m.sess.Close() }

// coldInstance loads, optimises, compiles and runs the ONNX file written
// during set-up, once per op.
type coldInstance struct {
	ctx  context.Context
	opts []orpheus.CompileOption
	path string
	mem  int64
}

func setupCold(w *workload, e *env) (instance, error) {
	m, err := buildModel(w.model)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.scratch, w.name+".onnx")
	if err := m.SaveONNX(path); err != nil {
		return nil, err
	}
	return &coldInstance{ctx: e.ctx, opts: w.compileOpts(), path: path}, nil
}

func (c *coldInstance) clients() int { return 1 }

func (c *coldInstance) do(_ int, in *orpheus.Tensor) ([]float32, error) {
	m, err := orpheus.LoadONNX(c.path)
	if err != nil {
		return nil, err
	}
	if err := m.Optimize(); err != nil {
		return nil, err
	}
	sess, err := m.Compile(c.opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	out, err := sess.Predict(c.ctx, in)
	if err != nil {
		return nil, err
	}
	c.mem = planBytes(sess)
	return out.Data(), nil
}

// settle collects the finished op's garbage: a real cold start begins on
// an empty heap. Left in, the garbage of earlier ops decides when the GC
// runs during later ones, and the peak RSS of equal runs lands on either
// 430 MB or 800 MB.
func (c *coldInstance) settle() { goruntime.GC() }

func (c *coldInstance) planBytes() int64 { return c.mem }
func (c *coldInstance) close()           {}
