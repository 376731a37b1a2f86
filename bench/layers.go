package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"orpheus"
	"orpheus/internal/backend"
	"orpheus/internal/gemm"
	"orpheus/internal/graph"
	"orpheus/internal/onnx"
	"orpheus/internal/ops"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
)

// Fixed sizes of the traced phase.
const (
	profileRuns = 30 // PredictProfiled runs (more on sub-millisecond models, see layerBudget)
	replayRuns  = 5  // replays of every GEMM shape
	stageRuns   = 5  // import → optimise → prepare → first run → second run sequences
)

// layerBudget lets a sub-millisecond model collect more than profileRuns
// samples, so its per-layer medians are not 30 samples of timer noise.
const layerBudget = time.Second

// layerProbe measures one workload's model layer by layer, from outside:
// every number comes from timing a call into a package's public API.
type layerProbe struct {
	w      *workload
	e      *env
	tr     *tracer
	budget time.Duration // see layerBudget
	out    map[string]float64
	tally
}

// check counts one traced op's output against its reference.
func (p *layerProbe) check(got []float32, in poolInput) {
	p.add(checkOutput(got, in.want, p.w.int8))
}

// profile runs PredictProfiled on a session compiled like the workload's
// and attributes LayerTiming.Duration to kernel families. Each profiled
// run is followed by an untraced PredictInto on the same session, so the
// two medians differ by the tracing overhead alone. It returns the last
// run's timings for the GEMM replay.
func (p *layerProbe) profile() ([]orpheus.LayerTiming, error) {
	m, err := buildModel(p.w.model)
	if err != nil {
		return nil, err
	}
	sess, err := m.Compile(p.w.compileOpts()...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	dst := orpheus.NewTensor(sess.Outputs()[0].Shape...)
	if _, err := sess.PredictInto(p.e.ctx, dst, p.e.pool[0].in); err != nil { // packs weights
		return nil, err
	}

	byFamily := map[string][]float64{}
	var layerSums, walls, untraced []float64
	var roots []int
	var last []orpheus.LayerTiming
	var flops int64
	begin := time.Now()
	for i := 0; i < 1000 && (i < profileRuns || time.Since(begin) < p.budget); i++ {
		in := p.e.pool[i%len(p.e.pool)]
		t0 := time.Now()
		out, timings, err := sess.PredictProfiled(p.e.ctx, in.in)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		p.check(out.Data(), in)

		op := p.tr.newOp()
		root := p.tr.add(0, op, "predict_profiled", t0, t1)
		roots = append(roots, root)
		// LayerTiming carries durations, not timestamps: lay the layers
		// end to end from the op's start. What is left is dispatch.
		famSum := map[string]float64{}
		at, layerSum := t0, 0.0
		flops = 0
		for _, lt := range timings {
			fam, ok := kernelFamilies[lt.Kernel]
			if !ok {
				return nil, fmt.Errorf("kernel %q of layer %q has no family (add it to kernelFamilies)", lt.Kernel, lt.Node.Name)
			}
			p.tr.add(root, op, lt.Node.Name+" ["+lt.Kernel+"]", at, at.Add(lt.Duration))
			at = at.Add(lt.Duration)
			famSum[fam] += ms(lt.Duration)
			layerSum += ms(lt.Duration)
			flops += lt.Flops
		}
		for _, fam := range families {
			byFamily[fam] = append(byFamily[fam], famSum[fam])
		}
		layerSums = append(layerSums, layerSum)
		walls = append(walls, ms(t1.Sub(t0)))
		last = timings

		t0 = time.Now()
		_, err = sess.PredictInto(p.e.ctx, dst, in.in)
		untraced = append(untraced, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
	}
	for _, fam := range families {
		p.out["ops."+fam+"_ms"] = median(byFamily[fam])
	}
	p.out["ops.gflop"] = float64(flops) / 1e9
	p.out["ops.layers"] = float64(len(last))

	self := selfTimes(p.tr.spans)
	dispatch := make([]float64, len(roots))
	for i, id := range roots {
		dispatch[i] = float64(self[id]) / 1e6
	}
	p.out["runtime.dispatch_ms"] = median(dispatch)
	p.out["runtime.layer_sum_ratio"] = median(layerSums) / median(untraced)
	p.out["runtime.trace_overhead_pct"] = 100 * (median(walls) - median(untraced)) / median(untraced)
	return last, nil
}

// gemmShape is the matrix product behind one GEMM-backed layer, per
// image: C[m×n] = A[m×k]·B[k×n], run groups times. The constant weights
// are A (NCHW convolution, int8 dense) or B (NHWC convolution, fp32 dense).
type gemmShape struct {
	layer    string
	m, n, k  int
	groups   int
	weightsB bool
	int8     bool
	conv     bool
}

// gemmShapeOf derives the GEMM a layer runs from its node, or reports
// false for a layer that is not GEMM-backed.
func gemmShapeOf(lt orpheus.LayerTiming) (gemmShape, bool) {
	n := lt.Node
	s := gemmShape{layer: n.Name, groups: 1, int8: ops.IsQuantized(ops.ByName(lt.Kernel))}
	switch kernelFamilies[lt.Kernel] {
	case famConvGemm:
		w, out := n.Inputs[1].Shape, n.Outputs[0].Shape // [Cout, Cin/g, KH, KW]
		s.conv = true
		s.groups = n.Attrs.Int("group", 1)
		cout, k := w[0]/s.groups, w[1]*w[2]*w[3]
		if n.Attrs.Str("layout", "") == "nhwc" { // [N, OH, OW, Cout]
			s.m, s.n, s.k, s.weightsB = out[1]*out[2], cout, k, true
		} else { // [N, Cout, OH, OW]
			s.m, s.n, s.k = cout, out[2]*out[3], k
		}
	case famDense:
		if lt.Kernel == "dense.naive" {
			return s, false
		}
		w := n.Inputs[1].Shape // [M, K]
		if s.int8 {
			s.m, s.n, s.k = w[0], 1, w[1] // Yᵀ = W·Xᵀ
		} else {
			s.m, s.n, s.k, s.weightsB = 1, w[0], w[1], true
		}
	default:
		return s, false
	}
	return s, true
}

// cachedPanels is a gemm.PackSrc8 over a fixed u8 matrix that packs each
// panel once and replays the bytes afterwards: the int8 tier has no
// pre-packed B, so this is as close as a replay gets to "micro-kernel
// only". Single-goroutine use.
type cachedPanels struct {
	b      []byte // k×n row-major
	n      int
	panels map[[2]int][]byte
}

func (c *cachedPanels) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	key := [2]int{pp, jj}
	if panel, ok := c.panels[key]; ok {
		copy(dst, panel)
		return
	}
	kcq4 := (kc + 3) &^ 3
	size := (nc + nr - 1) / nr * nr * kcq4
	clear(dst[:size])
	for p := 0; p < kc; p++ {
		row := c.b[(pp+p)*c.n+jj:]
		for j := 0; j < nc; j++ {
			dst[(j/nr)*nr*kcq4+(p/4)*nr*4+(j%nr)*4+p%4] = row[j]
		}
	}
	c.panels[key] = append([]byte(nil), dst[:size]...)
}

// replayRunner returns a function that runs the shape's GEMM once on
// random operands with the weights pre-packed, and the packed weights'
// size in bytes.
func replayRunner(s gemmShape, ctx *gemm.Context, r *tensor.RNG) (run func(), packedBytes int) {
	c := make([]float32, s.m*s.n)
	if s.int8 {
		a := make([]int8, s.m*s.k)
		for i := range a {
			a[i] = int8(r.Intn(127) - 63)
		}
		src := &cachedPanels{b: make([]byte, s.k*s.n), n: s.n, panels: map[[2]int][]byte{}}
		for i := range src.b {
			src.b[i] = byte(r.Intn(256))
		}
		call := gemm.CallInt8{PackedA: gemm.PrepackAInt8(a, s.m, s.k), B: src, C: c, M: s.m, N: s.n, K: s.k,
			ScaleA: make([]float32, s.m), RowSum: make([]int32, s.m), BScale: []float32{1}, BZero: []int32{0}}
		gemm.RowSumsInt8(call.RowSum, a, s.m, s.k)
		return func() { ctx.RunInt8(call) }, len(call.PackedA)
	}
	a := tensor.Rand(r, -1, 1, s.m, s.k).Data()
	b := tensor.Rand(r, -1, 1, s.k, s.n).Data()
	call := gemm.Call{A: a, B: b, C: c, M: s.m, N: s.n, K: s.k, Store: true}
	if s.weightsB {
		call.B, call.PackedB = nil, gemm.PrepackB(b, s.k, s.n)
		return func() { ctx.Run(call) }, 4 * len(call.PackedB)
	}
	call.A, call.PackedA = nil, gemm.PrepackA(a, s.m, s.k)
	return func() { ctx.Run(call) }, 4 * len(call.PackedA)
}

// replayGEMMs replays gemm.Context.Run / RunInt8 on the (M,N,K) of every
// GEMM-backed layer. What a conv layer costs beyond its replay is the
// gather and epilogue outside the micro-kernel.
func (p *layerProbe) replayGEMMs(timings []orpheus.LayerTiming, calib float64) {
	var ctx gemm.Context
	r := tensor.NewRNG(7)
	op := p.tr.newOp()
	begin := time.Now()
	root := p.tr.add(0, op, "gemm.replay", begin, begin) // end patched below
	var total, convPart, flops float64
	packed := 0
	for _, lt := range timings {
		s, ok := gemmShapeOf(lt)
		if !ok {
			continue
		}
		run, bytes := replayRunner(s, &ctx, r)
		run() // sizes the context's scratch, fills the int8 panel cache
		t0 := time.Now()
		best := median(timeReps(replayRuns, replayRuns, 0, func() {
			for g := 0; g < s.groups; g++ {
				run()
			}
		}))
		p.tr.add(root, op, s.layer, t0, time.Now())
		total += best
		if s.conv {
			convPart += best
		}
		flops += 2 * float64(s.m) * float64(s.n) * float64(s.k) * float64(s.groups)
		packed += bytes * s.groups
	}
	p.tr.spans[root-1].EndNs = time.Since(p.tr.t0).Nanoseconds()
	p.out["gemm.replay_ms"] = total
	p.out["gemm.packed_weight_mb"] = float64(packed) / (1 << 20)
	if total > 0 {
		p.out["gemm.replay_gflops"] = flops / total / 1e6
		p.out["gemm.pct_calib"] = 100 * p.out["gemm.replay_gflops"] / calib
	}
	p.out["ops.conv_gather_ms"] = p.out["ops."+famConvGemm+"_ms"] - convPart
}

// stages times each start-up layer's public function on its own, in the
// order LoadONNX → Optimize → Compile → first Predict runs them, and
// returns the last sequence's session pool.
func (p *layerProbe) stages() (*runtime.SessionPool, map[string]*tensor.Tensor, error) {
	g, err := buildGraph(p.w.model)
	if err != nil {
		return nil, nil, err
	}
	path := filepath.Join(p.e.scratch, p.w.name+".stages.onnx")
	if err := onnx.ExportFile(g, path); err != nil {
		return nil, nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	p.out["onnx.file_mb"] = float64(st.Size()) / (1 << 20)
	be, err := backend.ByName("orpheus")
	if err != nil {
		return nil, nil, err
	}

	times := map[string][]float64{}
	var pool *runtime.SessionPool
	var inputs map[string]*tensor.Tensor
	for i := 0; i < stageRuns; i++ {
		in := p.e.pool[i%len(p.e.pool)]
		op := p.tr.newOp()
		begin := time.Now()
		root := p.tr.add(0, op, "cold_start", begin, begin) // end patched below
		var stageErr error
		stage := func(name string, f func() error) {
			if stageErr != nil {
				return
			}
			t0 := time.Now()
			stageErr = f()
			t1 := time.Now()
			p.tr.add(root, op, name, t0, t1)
			times[name] = append(times[name], ms(t1.Sub(t0)))
		}
		var g *graph.Graph
		var plan *runtime.Plan
		var outs map[string]*tensor.Tensor
		stage("onnx.import", func() (err error) { g, err = onnx.ImportFile(path); return })
		if stageErr == nil {
			p.out["passes.nodes_before"] = float64(len(g.Nodes))
		}
		stage("passes.optimize", func() (err error) { _, err = passes.Default().Run(g); return })
		if stageErr == nil {
			p.out["passes.nodes_after"] = float64(len(g.Nodes))
		}
		stage("backend.prepare", func() (err error) {
			plan, err = be.PrepareWith(g, backend.PrepareOpts{Workers: 1, MaxBatch: p.w.maxBatch, Int8: p.w.int8})
			return
		})
		if stageErr == nil {
			pool = runtime.NewSessionPool(plan)
			inputs = map[string]*tensor.Tensor{plan.InputDescs()[0].Name: in.in}
		}
		stage("runtime.first_run", func() (err error) { outs, err = pool.Run(p.e.ctx, inputs); return })
		stage("runtime.second_run", func() (err error) { outs, err = pool.Run(p.e.ctx, inputs); return })
		if stageErr != nil {
			return nil, nil, stageErr
		}
		p.tr.spans[root-1].EndNs = time.Since(p.tr.t0).Nanoseconds()
		p.check(outs[plan.OutputDescs()[0].Name].Data(), in)

		quantized := 0
		for _, step := range plan.Steps() {
			if ops.IsQuantized(ops.ByName(step.Kernel)) {
				quantized++
			}
		}
		p.out["backend.int8_layers"] = float64(quantized)
	}
	for name, v := range times {
		p.out[name+"_ms"] = median(v)
	}
	// The first run packs every layer's weights; the second does not.
	p.out["gemm.prepack_ms"] = p.out["runtime.first_run_ms"] - p.out["runtime.second_run_ms"]
	return pool, inputs, nil
}

// measureLayers is the traced phase: profile, GEMM replay, start-up
// stages, SessionPool.Run alone, and the serving plane where there is
// one. ref is the untraced reference phase of the same process.
func measureLayers(w *workload, e *env, inst instance, ref phase, tr *tracer, budget time.Duration, calib float64) (*layerProbe, error) {
	p := &layerProbe{w: w, e: e, tr: tr, budget: budget, out: map[string]float64{}}
	timings, err := p.profile()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p.replayGEMMs(timings, calib)
	pool, inputs, err := p.stages()
	if err != nil {
		return nil, fmt.Errorf("stages: %w", err)
	}
	var runErr error
	p.out["runtime.run_us"] = 1e3 * median(timeReps(profileRuns, 1000, budget, func() {
		if _, err := pool.Run(e.ctx, inputs); err != nil {
			runErr = err
		}
	}))
	if runErr != nil {
		return nil, fmt.Errorf("SessionPool.Run: %w", runErr)
	}
	if s, ok := inst.(*serveInstance); ok {
		if err := p.servingPlane(s, ref); err != nil {
			return nil, fmt.Errorf("serving plane: %w", err)
		}
	}
	return p, nil
}
