package passes

import (
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

// countOp returns how many nodes of the given op the graph holds.
func countOp(g *graph.Graph, op string) int {
	c := 0
	for _, n := range g.Nodes {
		if n.Op == op {
			c++
		}
	}
	return c
}

// relDiff returns the max elementwise difference between a and b relative
// to max(1, |a|, |b|).
func relDiff(a, b *tensor.Tensor) float64 {
	ad, bd := a.Data(), b.Data()
	var worst float64
	for i := range ad {
		d := float64(ad[i]) - float64(bd[i])
		if d < 0 {
			d = -d
		}
		scale := 1.0
		for _, v := range []float64{float64(ad[i]), float64(bd[i])} {
			if v < 0 {
				v = -v
			}
			if v > scale {
				scale = v
			}
		}
		if d/scale > worst {
			worst = d / scale
		}
	}
	return worst
}

// runLayout optimises a clone of g through LayoutPipeline and returns the
// converted graph plus the collected stats.
func runLayout(t testing.TB, g *graph.Graph) (*graph.Graph, *LayoutStats) {
	t.Helper()
	stats := &LayoutStats{}
	opt := g.Clone()
	if err := opt.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := LayoutPipeline(stats).Run(opt); err != nil {
		t.Fatal(err)
	}
	return opt, stats
}

func TestConvertLayoutStraightLine(t *testing.T) {
	g := convBNRelu(t, true, true)
	x := tensor.Rand(tensor.NewRNG(2), -1, 1, 1, 3, 8, 8)
	want := evaluate(t, g, x)

	opt, stats := runLayout(t, g)
	// The boundary transpose folds into the conv's gather and the output
	// side is rank-2-free... the conv output IS the graph output here, so
	// exactly one closing transpose may remain — assert the stats balance.
	if stats.NHWCNodes == 0 {
		t.Fatal("no nodes converted to NHWC")
	}
	for _, n := range opt.Nodes {
		if n.Op == "Conv" {
			if n.Attrs.Str("layout", "") != "nhwc" {
				t.Fatalf("conv %s not converted: %v", n.Name, n.Attrs)
			}
			if n.Attrs.Str("src_layout", "") != "nchw" {
				t.Fatalf("boundary transpose not folded into conv %s: %v", n.Name, n.Attrs)
			}
		}
	}
	if stats.Remaining != 1 {
		t.Fatalf("want exactly the closing output transpose, got %d remaining (stats %+v)", stats.Remaining, stats)
	}
	got := evaluate(t, opt, x)
	if d := relDiff(got, want); d > 1e-5 {
		t.Fatalf("NHWC output diverges: rel diff %g", d)
	}
}

// branchyGraph builds an inception-style block: a stem conv fanning out
// into three branches (1x1 conv, 3x3 conv, maxpool+1x1) concatenated over
// channels, then pooled to a classifier.
func branchyGraph(t testing.TB) *graph.Graph {
	t.Helper()
	r := tensor.NewRNG(5)
	g := graph.New("branchy")
	x, err := g.Input("x", []int{1, 3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	conv := func(name string, in *graph.Value, cin, cout, k, pad int) *graph.Value {
		w, _ := g.Const(name+".w", tensor.HeNormal(r, cout, cin, k, k))
		b, _ := g.Const(name+".b", tensor.Rand(r, -0.1, 0.1, cout))
		v, err := g.Add("Conv", name, graph.Attrs{"pads": []int{pad, pad, pad, pad}, "activation": "relu"}, in, w, b)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	stem := conv("stem", x, 3, 8, 3, 1)
	b1 := conv("b1", stem, 8, 4, 1, 0)
	b2 := conv("b2", stem, 8, 6, 3, 1)
	mp, _ := g.Add("MaxPool", "b3.pool", graph.Attrs{"kernel": []int{3, 3}, "strides": []int{1, 1}, "pads": []int{1, 1, 1, 1}}, stem)
	b3 := conv("b3", mp, 8, 4, 1, 0)
	cat, _ := g.Add("Concat", "cat", graph.Attrs{"axis": 1}, b1, b2, b3)
	head := conv("head", cat, 14, 10, 1, 0)
	gap, _ := g.Add("GlobalAveragePool", "gap", nil, head)
	fl, _ := g.Add("Flatten", "flatten", nil, gap)
	if err := g.MarkOutput(fl); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConvertLayoutBranchyCancelsTransposes(t *testing.T) {
	g := branchyGraph(t)
	x := tensor.Rand(tensor.NewRNG(6), -1, 1, 1, 3, 16, 16)
	want := evaluate(t, g, x)

	opt, stats := runLayout(t, g)
	if n := countOp(opt, "Transpose"); n != 0 {
		t.Fatalf("branchy graph should carry zero transposes, has %d (stats %+v)", n, stats)
	}
	for _, n := range opt.Nodes {
		if n.Op == "Concat" && n.Attrs.Int("axis", 1) != 3 {
			t.Fatalf("concat axis not rewritten for NHWC: %v", n.Attrs)
		}
	}
	if stats.Folded == 0 {
		t.Fatalf("expected the input boundary transpose to fold, stats %+v", stats)
	}
	got := evaluate(t, opt, x)
	if d := relDiff(got, want); d > 1e-5 {
		t.Fatalf("NHWC output diverges: rel diff %g", d)
	}
}

func TestConvertLayoutOutputFrontierRemains(t *testing.T) {
	// A conv whose NHWC output is the graph output: the closing
	// NHWC→NCHW transpose cannot cancel and must materialise.
	r := tensor.NewRNG(7)
	g := graph.New("convout")
	x, _ := g.Input("x", []int{1, 3, 8, 8})
	w, _ := g.Const("w", tensor.HeNormal(r, 5, 3, 3, 3))
	c, _ := g.Add("Conv", "conv", graph.Attrs{"pads": []int{1, 1, 1, 1}}, x, w)
	if err := g.MarkOutput(c); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	in := tensor.Rand(tensor.NewRNG(8), -1, 1, 1, 3, 8, 8)
	want := evaluate(t, g, in)

	opt, stats := runLayout(t, g)
	if n := countOp(opt, "Transpose"); n != 1 {
		t.Fatalf("want exactly 1 output transpose, got %d (stats %+v)", n, stats)
	}
	got := evaluate(t, opt, in)
	if d := relDiff(got, want); d > 1e-5 {
		t.Fatalf("NHWC output diverges: rel diff %g", d)
	}
	// And the output shape contract must still be NCHW.
	if s := opt.Outputs[0].Shape; !tensor.ShapeEq(s, []int{1, 5, 8, 8}) {
		t.Fatalf("output shape %v, want NCHW [1 5 8 8]", s)
	}
}

func TestConvertLayoutIdempotent(t *testing.T) {
	g := branchyGraph(t)
	stats := &LayoutStats{}
	opt := g.Clone()
	if err := opt.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := LayoutPipeline(stats).Run(opt); err != nil {
		t.Fatal(err)
	}
	// A second full pipeline over the converted graph must be a no-op.
	pass := ConvertLayout(stats)
	changed, err := pass.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("ConvertLayout not idempotent: second run reported changes")
	}
}
