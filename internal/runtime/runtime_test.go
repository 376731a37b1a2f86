package runtime

import (
	"context"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"orpheus/internal/graph"
	"orpheus/internal/ops"
	"orpheus/internal/tensor"
)

// smallCNN builds conv(3x3) -> relu -> maxpool -> flatten -> dense -> softmax.
func smallCNN(t testing.TB) *graph.Graph {
	t.Helper()
	r := tensor.NewRNG(1)
	g := graph.New("smallcnn")
	x, err := g.Input("x", []int{1, 3, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := g.Const("w1", tensor.HeNormal(r, 4, 3, 3, 3))
	b1, _ := g.Const("b1", tensor.Rand(r, -0.1, 0.1, 4))
	c1, _ := g.Add("Conv", "conv1", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x, w1, b1)
	a1, _ := g.Add("Relu", "relu1", nil, c1)
	p1, _ := g.Add("MaxPool", "pool1", graph.Attrs{"kernel": []int{2, 2}, "strides": []int{2, 2}}, a1)
	f1, _ := g.Add("Flatten", "flat", graph.Attrs{"axis": 1}, p1)
	wd, _ := g.Const("wd", tensor.HeNormal(r, 10, 4*4*4))
	bd, _ := g.Const("bd", tensor.Rand(r, -0.1, 0.1, 10))
	d1, _ := g.Add("Dense", "fc", nil, f1, wd, bd)
	sm, _ := g.Add("Softmax", "prob", nil, d1)
	if err := g.MarkOutput(sm); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// runGraph compiles a clone of g — Compile owns its graph, and callers
// run one graph under several options — and runs it once on x.
func runGraph(t testing.TB, g *graph.Graph, opts Options, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	plan, err := Compile(g.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(plan)
	out, err := sess.Run(context.Background(), map[string]*tensor.Tensor{g.Inputs[0].Name: x})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("outputs = %d, want 1", len(out))
	}
	for _, v := range out {
		return v.Clone()
	}
	return nil
}

func TestSessionRunsSmallCNN(t *testing.T) {
	g := smallCNN(t)
	x := tensor.Rand(tensor.NewRNG(2), -1, 1, 1, 3, 8, 8)
	out := runGraph(t, g, Options{}, x)
	if !tensor.ShapeEq(out.Shape(), []int{1, 10}) {
		t.Fatalf("output shape = %v", out.Shape())
	}
	var sum float64
	for _, v := range out.Data() {
		sum += float64(v)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("softmax output sums to %v", sum)
	}
}

func TestBufferReuseMatchesNoReuse(t *testing.T) {
	g := smallCNN(t)
	x := tensor.Rand(tensor.NewRNG(3), -1, 1, 1, 3, 8, 8)
	a := runGraph(t, g, Options{}, x)
	b := runGraph(t, g, Options{NoBufferReuse: true}, x)
	if !tensor.AllClose(a, b, 1e-6) {
		t.Fatalf("arena execution differs from fresh-alloc execution: %g", tensor.MaxAbsDiff(a, b))
	}
}

// TestNoBufferReuseRunsPerCall pins the per-call-allocation switch on the
// one run loop: a NoBufferReuse session gives the arena session's outputs
// bit for bit, packs its weights into a cache private to each run (the
// plan's stays empty however often it runs) and allocates on every run,
// where the arena session allocates nothing.
func TestNoBufferReuseRunsPerCall(t *testing.T) {
	g := smallCNN(t)
	in := map[string]*tensor.Tensor{"x": tensor.Rand(tensor.NewRNG(3), -1, 1, 1, 3, 8, 8)}
	ctx := context.Background()
	arenaPlan, err := Compile(g.Clone(), Options{Policy: packingPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	perCall, err := Compile(g.Clone(), Options{Policy: packingPolicy{}, NoBufferReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	arena, fresh := NewSession(arenaPlan), NewSession(perCall)
	want, err := arena.Run(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := fresh.Run(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(got["prob_out"], want["prob_out"], 0) {
			t.Fatalf("run %d: NoBufferReuse output differs from the arena's by %g", i, tensor.MaxAbsDiff(got["prob_out"], want["prob_out"]))
		}
	}
	if b, n := perCall.ConstBytes(), perCall.ConstStores(); b != 0 || n != 0 {
		t.Errorf("NoBufferReuse plan cache holds %d B after %d stores, want none", b, n)
	}
	run := func(s *Session) func() {
		return func() {
			if _, err := s.Run(ctx, in); err != nil {
				t.Fatal(err)
			}
		}
	}
	if avg := testing.AllocsPerRun(5, run(fresh)); avg == 0 {
		t.Error("NoBufferReuse Session.Run allocates nothing; want fresh buffers every run")
	}
	if avg := testing.AllocsPerRun(5, run(arena)); avg != 0 {
		t.Errorf("arena Session.Run allocates %.1f times per run, want 0", avg)
	}
}

func TestRepeatedRunsAreDeterministic(t *testing.T) {
	g := smallCNN(t)
	plan, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(plan)
	x := tensor.Rand(tensor.NewRNG(4), -1, 1, 1, 3, 8, 8)
	in := map[string]*tensor.Tensor{"x": x}
	out1, err := sess.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	first := out1["prob_out"].Clone()
	for i := 0; i < 3; i++ {
		out, err := sess.Run(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(out["prob_out"], first, 0) {
			t.Fatalf("run %d differs from first run", i)
		}
	}
}

func TestArenaSmallerThanNoReuse(t *testing.T) {
	g := smallCNN(t)
	plan, err := Compile(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.ArenaBytes() >= plan.NoReuseBytes() {
		t.Fatalf("arena %d >= no-reuse %d: planner found no reuse in a chain graph",
			plan.ArenaBytes(), plan.NoReuseBytes())
	}
}

// packingPolicy selects the packed GEMM kernels for Conv and Dense.
type packingPolicy struct{}

func (packingPolicy) Name() string { return "test-packing" }
func (packingPolicy) Select(n *graph.Node) (ops.Kernel, error) {
	switch n.Op {
	case "Conv":
		return ops.ByName("conv.im2col"), nil
	case "Dense":
		return ops.ByName("dense.gemm"), nil
	}
	return ReferencePolicy{}.Select(n)
}

// TestWeightBytesCountsHeldData: WeightBytes is the constant data a plan
// still holds. The reference kernels read every weight raw, so it is all
// of NumParams; on the packed kernels the plan keeps the conv and dense
// weights only as panels (ConstBytes) and holds the biases alone, and the
// released values keep their shapes. A NoBufferReuse plan packs per run,
// so nothing is released.
func TestWeightBytesCountsHeldData(t *testing.T) {
	g := smallCNN(t)
	params := g.NumParams() * 4
	ref, err := Compile(g.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.WeightBytes() != params || ref.ConstBytes() != 0 {
		t.Fatalf("reference plan: weights %d B (want %d), packed %d B (want 0)", ref.WeightBytes(), params, ref.ConstBytes())
	}
	perCall, err := Compile(g.Clone(), Options{Policy: packingPolicy{}, NoBufferReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if perCall.WeightBytes() != params || perCall.ConstBytes() != 0 {
		t.Fatalf("per-call plan: weights %d B (want %d), packed %d B (want 0)", perCall.WeightBytes(), params, perCall.ConstBytes())
	}
	packed, err := Compile(g.Clone(), Options{Policy: packingPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	biases := int64(g.Value("b1").Const.Size()+g.Value("bd").Const.Size()) * 4
	if packed.WeightBytes() != biases || packed.ConstBytes() == 0 {
		t.Fatalf("packed plan: weights %d B (want the %d B of biases), packed %d B (want > 0)", packed.WeightBytes(), biases, packed.ConstBytes())
	}
	for _, name := range []string{"w1", "wd"} {
		if v := packed.g.Value(name); v.Const.Size() != 0 || !tensor.ShapeEq(v.Const.Shape(), g.Value(name).Shape) {
			t.Errorf("%s: holds %d values with shape %v, want none with shape %v", name, v.Const.Size(), v.Const.Shape(), g.Value(name).Shape)
		}
	}
}

func TestMissingAndMisshapenInputs(t *testing.T) {
	g := smallCNN(t)
	plan, _ := Compile(g, Options{})
	sess := NewSession(plan)
	if _, err := sess.Run(context.Background(), map[string]*tensor.Tensor{}); err == nil || !strings.Contains(err.Error(), "missing input") {
		t.Fatalf("missing input not reported: %v", err)
	}
	bad := tensor.New(1, 3, 4, 4)
	if _, err := sess.Run(context.Background(), map[string]*tensor.Tensor{"x": bad}); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape mismatch not reported: %v", err)
	}
}

func TestRunProfiledCoversAllNodes(t *testing.T) {
	g := smallCNN(t)
	plan, _ := Compile(g, Options{})
	sess := NewSession(plan)
	x := tensor.Rand(tensor.NewRNG(5), -1, 1, 1, 3, 8, 8)
	_, timings, err := sess.RunProfiled(context.Background(), map[string]*tensor.Tensor{"x": x})
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != len(g.Nodes) {
		t.Fatalf("timings for %d nodes, want %d", len(timings), len(g.Nodes))
	}
	var convFlops int64
	for _, lt := range timings {
		if lt.Node.Op == "Conv" {
			convFlops = lt.Flops
		}
	}
	// conv1: 2 * (3*3*3) * (4*8*8) = 13824.
	if convFlops != 13824 {
		t.Fatalf("conv flops = %d, want 13824", convFlops)
	}
}

// namedPolicy forces a specific kernel for one op.
type namedPolicy struct{ op, kernel string }

func (p namedPolicy) Name() string { return "test-" + p.kernel }
func (p namedPolicy) Select(n *graph.Node) (ops.Kernel, error) {
	if n.Op == p.op {
		return ops.ByName(p.kernel), nil
	}
	return ReferencePolicy{}.Select(n)
}

func TestPolicySelectsRequestedKernel(t *testing.T) {
	g := smallCNN(t)
	plan, err := Compile(g.Clone(), Options{Policy: namedPolicy{op: "Conv", kernel: "conv.im2col"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range plan.Steps() {
		if st.Node.Op == "Conv" && st.Kernel == "conv.im2col" {
			found = true
		}
	}
	if !found {
		t.Fatal("policy did not select conv.im2col")
	}
	// Numerical equivalence across policies.
	x := tensor.Rand(tensor.NewRNG(6), -1, 1, 1, 3, 8, 8)
	ref := runGraph(t, g, Options{}, x)
	got := runGraph(t, g, Options{Policy: namedPolicy{op: "Conv", kernel: "conv.im2col"}}, x)
	if !tensor.AllClose(ref, got, 1e-5) {
		t.Fatal("im2col policy diverges from reference policy")
	}
}

// countingPolicy counts selection calls. It also carries the SelectBatch
// method sessions once looked for at bind time, to pin that nothing calls
// it: Compile is the only selection point.
type countingPolicy struct{ selects, batchSelects int }

func (p *countingPolicy) Name() string { return "counting" }
func (p *countingPolicy) Select(n *graph.Node) (ops.Kernel, error) {
	p.selects++
	return ReferencePolicy{}.Select(n)
}
func (p *countingPolicy) SelectBatch(n *graph.Node, batch int, inShapes, outShapes [][]int) (ops.Kernel, error) {
	p.batchSelects++
	return ReferencePolicy{}.Select(n)
}

// TestCompileIsTheOnlySelectionPoint: Compile asks the policy once per
// node, and running a MaxBatch-4 session at every batch size asks it
// nothing more — each batch executes exactly the kernels Steps() lists.
func TestCompileIsTheOnlySelectionPoint(t *testing.T) {
	g := smallCNN(t)
	p := &countingPolicy{}
	plan, err := Compile(g, Options{Policy: p, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.selects != len(g.Nodes) {
		t.Fatalf("Compile called Select %d times for %d nodes", p.selects, len(g.Nodes))
	}
	sess := NewSession(plan)
	for n := 1; n <= 4; n++ {
		x := tensor.Rand(tensor.NewRNG(uint64(n)), -1, 1, plan.InputShapeAt(0, n)...)
		_, timings, err := sess.RunProfiled(context.Background(), map[string]*tensor.Tensor{"x": x})
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range plan.Steps() {
			if timings[i].Kernel != st.Kernel {
				t.Errorf("batch %d ran %s on %s, plan says %s", n, timings[i].Kernel, st.Node.Name, st.Kernel)
			}
		}
	}
	if p.selects != len(g.Nodes) || p.batchSelects != 0 {
		t.Fatalf("running at batches 1..4 consulted the policy: Select %d (want %d), SelectBatch %d (want 0)",
			p.selects, len(g.Nodes), p.batchSelects)
	}
}

// TestSessionPoolFreeList pins the pool's reuse contract: a lone caller
// keeps getting the one session it built (across GC cycles, which
// emptied the sync.Pool this replaced), concurrent borrowers each get
// their own, and no more than GOMAXPROCS sessions ever sit idle.
func TestSessionPoolFreeList(t *testing.T) {
	plan, err := Compile(smallCNN(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool(plan)
	in := map[string]*tensor.Tensor{"x": tensor.Rand(tensor.NewRNG(7), -1, 1, 1, 3, 8, 8)}
	idle := func() int {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return len(pool.idle)
	}

	first := pool.Get()
	pool.Put(first)
	for i := 0; i < 20; i++ {
		s := pool.Get()
		if s != first {
			t.Fatalf("iteration %d built a second session", i)
		}
		if _, err := s.Run(context.Background(), in); err != nil {
			t.Fatal(err)
		}
		pool.Put(s)
		goruntime.GC()
	}

	limit := goruntime.GOMAXPROCS(0)
	borrowed := make([]*Session, limit+3)
	seen := make(map[*Session]bool)
	for i := range borrowed {
		borrowed[i] = pool.Get()
		if seen[borrowed[i]] {
			t.Fatalf("borrower %d was handed a session already in use", i)
		}
		seen[borrowed[i]] = true
	}
	for _, s := range borrowed {
		pool.Put(s)
		if n := idle(); n > limit {
			t.Fatalf("%d idle sessions, limit GOMAXPROCS = %d", n, limit)
		}
	}
	if n := idle(); n != limit {
		t.Fatalf("%d idle sessions after %d returns, want %d", n, len(borrowed), limit)
	}

	var wg sync.WaitGroup
	for w := 0; w < 2*limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := pool.Run(context.Background(), in); err != nil {
					t.Error(err)
					return
				}
				if n := idle(); n > limit {
					t.Errorf("%d idle sessions, limit GOMAXPROCS = %d", n, limit)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStagingRunOne pins the single-input path every front-end stages
// through: rows written into Staging(n) and run by RunOne match each
// sample's batch-1 Run, every batch size views one session-owned buffer,
// and after warm-up Staging + RunOne allocates nothing at n = 1 and at
// n = MaxBatch.
func TestStagingRunOne(t *testing.T) {
	const maxBatch = 4
	plan, err := Compile(smallCNN(t), Options{MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSessionPool(plan)
	sess := NewSession(plan)
	ctx := context.Background()
	for _, n := range []int{1, maxBatch} {
		in := sess.Staging(n)
		if got := in.Shape(); got[0] != n || in.Size() != n*3*8*8 {
			t.Fatalf("Staging(%d) shape %v", n, got)
		}
		if &in.Data()[0] != &sess.Staging(1).Data()[0] || sess.Staging(n) != in {
			t.Fatalf("Staging(%d) is not the session's one reused view", n)
		}
		for i := 0; i < n; i++ {
			copy(in.Data()[i*3*8*8:], sampleFor(i))
		}
		out, err := sess.RunOne(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		rowVol := out.Size() / n
		for i := 0; i < n; i++ {
			want := referenceRow(t, pool, sampleFor(i))
			for j, v := range out.Data()[i*rowVol : (i+1)*rowVol] {
				if v != want[j] {
					t.Fatalf("n=%d row %d [%d] = %v, batch-1 Run gives %v", n, i, j, v, want[j])
				}
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := sess.RunOne(ctx, sess.Staging(n)); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("steady-state Staging(%d) + RunOne allocates %.1f times per run, want 0", n, avg)
		}
	}
}

func TestPolicyRejectsUnsupportedKernel(t *testing.T) {
	g := smallCNN(t) // conv1 is not depthwise
	_, err := Compile(g, Options{Policy: namedPolicy{op: "Conv", kernel: "conv.depthwise"}})
	if err == nil {
		t.Fatal("unsupported kernel selection not rejected at compile time")
	}
}

func TestDiamondLivenessNoAliasing(t *testing.T) {
	// x -> a(relu), x -> b(relu); out = a + b. The planner must not give a
	// and b the same slot even though both die at the Add.
	g := graph.New("diamond")
	x, _ := g.Input("x", []int{1, 16})
	a, _ := g.Add("Relu", "a", nil, x)
	b, _ := g.Add("LeakyRelu", "b", graph.Attrs{"alpha": 0.5}, x)
	s, _ := g.Add("Add", "sum", nil, a, b)
	_ = g.MarkOutput(s)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	xs := tensor.Full(-2, 1, 16)
	out := runGraph(t, g, Options{}, xs)
	// relu(-2) + leaky(-2, 0.5) = 0 + (-1) = -1.
	for _, v := range out.Data() {
		if v != -1 {
			t.Fatalf("diamond result = %v, want -1 (slot aliasing?)", v)
		}
	}
}

func TestMeasureStats(t *testing.T) {
	g := smallCNN(t)
	plan, _ := Compile(g, Options{})
	sess := NewSession(plan)
	x := tensor.Rand(tensor.NewRNG(7), -1, 1, 1, 3, 8, 8)
	stats, err := Measure(context.Background(), sess, map[string]*tensor.Tensor{"x": x}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 5 || stats.Min <= 0 || stats.Median < stats.Min || stats.Max < stats.Median {
		t.Fatalf("implausible stats: %+v", stats)
	}
	if _, err := Measure(context.Background(), sess, map[string]*tensor.Tensor{"x": x}, 0, 0); err == nil {
		t.Fatal("Measure with 0 reps should error")
	}
}

func TestSummariseKnownValues(t *testing.T) {
	s := Summarise(nil)
	if s.Runs != 0 {
		t.Fatal("empty summarise should be zero")
	}
	s = Summarise([]time.Duration{4, 2, 8, 6})
	if s.Min != 2 || s.Max != 8 || s.Mean != 5 || s.Median != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "median") {
		t.Fatal("String should mention median")
	}
}
