package device

import (
	"testing"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/graph"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

func convNode(t testing.TB, cin, cout, k, hw int) *graph.Node {
	t.Helper()
	r := tensor.NewRNG(1)
	g := graph.New("d")
	x, _ := g.Input("x", []int{1, cin, hw, hw})
	w, _ := g.Const("w", tensor.HeNormal(r, cout, cin, k, k))
	pad := k / 2
	_, err := g.Add("Conv", "c", graph.Attrs{"pads": []int{pad, pad, pad, pad}}, x, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InferShapes(); err != nil {
		t.Fatal(err)
	}
	return g.Nodes[0]
}

func TestEstimatesPositiveAndMonotonic(t *testing.T) {
	d := HiKey970()
	small := convNode(t, 16, 16, 3, 14)
	big := convNode(t, 64, 64, 3, 56)
	for _, kernel := range []string{"conv.direct", "conv.im2col", "conv.spatialpack", "conv.winograd"} {
		ts := d.EstimateNode(small, kernel)
		tb := d.EstimateNode(big, kernel)
		if ts <= 0 || tb <= 0 {
			t.Fatalf("%s: non-positive estimate", kernel)
		}
		if tb <= ts {
			t.Errorf("%s: big layer (%v) not slower than small (%v)", kernel, tb, ts)
		}
	}
}

func TestDirectSlowerThanGemm(t *testing.T) {
	d := HiKey970()
	n := convNode(t, 64, 64, 3, 56)
	direct := d.EstimateNode(n, "conv.direct")
	gemm := d.EstimateNode(n, "conv.im2col")
	if direct < 4*gemm {
		t.Errorf("direct conv %v should be several times slower than GEMM %v", direct, gemm)
	}
}

func TestGemmSpatialPackCrossover(t *testing.T) {
	d := HiKey970()
	// Small K: spatial pack wins; large K: GEMM wins.
	small := convNode(t, 32, 32, 3, 32) // K = 288
	if d.EstimateNode(small, "conv.spatialpack") >= d.EstimateNode(small, "conv.im2col") {
		t.Error("spatial pack should win at K=288")
	}
	big := convNode(t, 256, 256, 3, 14) // K = 2304
	if d.EstimateNode(big, "conv.im2col") >= d.EstimateNode(big, "conv.spatialpack") {
		t.Error("im2col should win at K=2304")
	}
}

func TestPointwiseNearTie(t *testing.T) {
	d := HiKey970()
	pw := convNode(t, 512, 512, 1, 14)
	a := float64(d.EstimateNode(pw, "conv.im2col"))
	b := float64(d.EstimateNode(pw, "conv.spatialpack"))
	if a/b > 1.5 || b/a > 1.5 {
		t.Errorf("1x1 conv estimates should be close: im2col %v vs spatialpack %v", a, b)
	}
}

func TestEstimatePlanAddsDispatch(t *testing.T) {
	g, err := zoo.WRN40_2(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := backend.ByName("orpheus")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := b.PrepareWith(g, backend.PrepareOpts{})
	if err != nil {
		t.Fatal(err)
	}
	d := HiKey970()
	base := d.EstimatePlan(plan, 0)
	withDispatch := d.EstimatePlan(plan, 10*time.Microsecond)
	wantExtra := time.Duration(len(plan.Steps())) * 10 * time.Microsecond
	if withDispatch-base != wantExtra {
		t.Errorf("dispatch accounting: got extra %v, want %v", withDispatch-base, wantExtra)
	}
	if base <= 0 {
		t.Error("plan estimate should be positive")
	}
}

func TestUnknownKernelUsesDefaultModel(t *testing.T) {
	d := HiKey970()
	n := convNode(t, 8, 8, 3, 8)
	if d.EstimateNode(n, "conv.someday") <= 0 {
		t.Error("unknown kernel should fall back to the default model")
	}
}

// TestExplicitIm2colCostsAsIm2col: torch-sim's conv kernel is the explicit
// unfold, and the conv.im2col model already charges the unfold buffer, so
// the two kernels must cost the same on every conv of every zoo model,
// pointwise layers included.
func TestExplicitIm2colCostsAsIm2col(t *testing.T) {
	d := HiKey970()
	for _, name := range zoo.Names() {
		g, err := zoo.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		convs := 0
		for _, n := range g.Nodes {
			if n.Op != "Conv" {
				continue
			}
			convs++
			if ex, im := d.EstimateNode(n, "conv.im2col_explicit"), d.EstimateNode(n, "conv.im2col"); ex != im {
				t.Errorf("%s/%s: conv.im2col_explicit costs %v, conv.im2col %v", name, n.Name, ex, im)
			}
		}
		if convs == 0 {
			t.Errorf("%s: no Conv nodes", name)
		}
	}
}
