package main

import (
	"math"
	"testing"
	"time"

	"orpheus/internal/ops"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

// The most common latency is the undisturbed cluster's, whichever other
// state the host mixes in and however much of it, up to the stated share.
func TestTypicalFindsTheNarrowCluster(t *testing.T) {
	sample := func(fast, normal, slow int) []float64 {
		var v []float64
		for i := 0; i < fast; i++ {
			v = append(v, 50+0.2*float64(i)) // spread out
		}
		for i := 0; i < normal; i++ {
			v = append(v, 64+0.01*float64(i)) // narrow
		}
		for i := 0; i < slow; i++ {
			v = append(v, 88+0.15*float64(i)) // wider than the undisturbed ones
		}
		return sortedCopy(v)
	}
	for _, c := range []struct{ fast, normal, slow int }{{0, 100, 0}, {35, 65, 0}, {0, 30, 70}, {20, 40, 40}} {
		if got := typical(sample(c.fast, c.normal, c.slow)); got < 64 || got > 65 {
			t.Errorf("typical of %d fast, %d undisturbed, %d slow ops = %v, want 64–65", c.fast, c.normal, c.slow, got)
		}
	}
	if got := typical([]float64{7}); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
	if got := typical(nil); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

// A percentile may be reported when at least ten samples lie beyond it.
func TestSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b overlaps a", StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, Op: 1, Name: "c runs past its parent", StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 2, Op: 1, Name: "grandchild", StartNs: 15, EndNs: 25},
		{ID: 6, Parent: 0, Op: 2, Name: "childless", StartNs: 200, EndNs: 230},
	}
	want := map[int]int64{
		1: 100 - (60 - 10) - (100 - 90), // a∪b cover 10..60, c is clipped to 90..100
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
		6: 30,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

// A kernel registered in internal/ops without a family would silently
// drop out of per-layer attribution.
func TestEveryKernelHasAFamily(t *testing.T) {
	known := map[string]bool{}
	for _, f := range families {
		known[f] = true
	}
	for _, name := range ops.KernelNames() {
		fam, ok := kernelFamilies[name]
		if !ok {
			t.Errorf("kernel %q is registered in internal/ops but maps to no family", name)
		} else if !known[fam] {
			t.Errorf("kernel %q maps to unknown family %q", name, fam)
		}
	}
	for name := range kernelFamilies {
		if ops.ByName(name) == nil {
			t.Errorf("family table lists %q, which internal/ops does not register", name)
		}
	}
}

func TestCheckOutputTolerances(t *testing.T) {
	want := []float32{10, -4, 2, 0}
	if err := checkOutput([]float32{10.0005, -4, 2, 0}, want, false); err != nil {
		t.Errorf("fp32 error of 5e-5 of the golden magnitude rejected: %v", err)
	}
	if err := checkOutput([]float32{10.01, -4, 2, 0}, want, false); err == nil {
		t.Error("fp32 error of 1e-3 of the golden magnitude accepted")
	}
	if err := checkOutput([]float32{10.3, -4.1, 2, 0}, want, true); err != nil {
		t.Errorf("int8 output within 5 %% L2 and equal top-1 rejected: %v", err)
	}
	if err := checkOutput([]float32{3, -4, 4, 0}, want, true); err == nil {
		t.Error("int8 output with another top-1 accepted")
	}
	if err := checkOutput([]float32{12, -4, 2, 0}, want, true); err == nil {
		t.Error("int8 output 18 % off in L2 accepted")
	}
	if err := checkOutput([]float32{float32(math.NaN()), -4, 2, 0}, want, false); err == nil {
		t.Error("NaN output accepted")
	}
	if err := checkOutput([]float32{10, -4, 2}, want, false); err == nil {
		t.Error("short output accepted")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 112, "lower"); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("latency 100→112: worse by %v, want 0.12", got)
	}
	if got := worseBy(100, 88, "higher"); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("throughput 100→88: worse by %v, want 0.12", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100→90 counted as worse (%v)", got)
	}
}

// Every workload BENCHMARK.json lists must be one the code has, and a
// traced run of serve-http — the one workload with every layer — must
// measure exactly the per-layer metrics the spec lists.
func TestServeHTTPSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range sp.Workloads {
		if _, err := workloadByName(ws.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	w, err := workloadByName("serve-http")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()

	rep, err := runWorkload(sp, w, 1, 0.3, false, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
		t.Fatalf("untraced run: correct %v, attempted %d, failed %d (%s)", rep.Correct, rep.Attempted, rep.Failed, rep.FirstError)
	}
	for _, m := range sp.EndToEnd {
		if got := rep.Metrics[m.Name]; got.Value <= 0 || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s = %v %q, want a positive value in %q", m.Name, got.Value, got.Unit, m.Unit)
		}
	}

	e, err := newEnv(w, 1, out)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.setup(w, e)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	ref := runPhase(inst, e, false, 0)
	probe, err := measureLayers(w, e, inst, ref, newTracer(), 50*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if probe.failed != 0 {
		t.Errorf("traced phase: %d of %d ops failed: %v", probe.failed, probe.attempted, probe.err)
	}
	for _, name := range []string{"latency_p50_ms", "latency_p90_ms", "ops_per_s", "allocs_per_op", "host.calib_gflops"} {
		probe.out[name] = 0 // set by runWorkload
	}
	listed := map[string]bool{}
	for _, m := range sp.PerLayer {
		listed[m.Name] = true
		if _, ok := probe.out[m.Name]; !ok {
			t.Errorf("BENCHMARK.json lists per-layer metric %s, which serve-http does not measure", m.Name)
		}
	}
	for name := range probe.out {
		if !listed[name] {
			t.Errorf("serve-http measures %s, which BENCHMARK.json does not list", name)
		}
	}
}
