package ops

import (
	"math"
	"testing"
	"testing/quick"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

func TestBatchNormAffine(t *testing.T) {
	// With mean=0, var=1, eps=0: y = scale*x + bias.
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 2, 1, 2)
	scale := tensor.FromSlice([]float32{2, 3}, 2)
	bias := tensor.FromSlice([]float32{1, -1}, 2)
	mean := tensor.New(2)
	variance := tensor.FromSlice([]float32{1, 1}, 2)
	out := runKernel(t, "batchnorm.direct", "BatchNorm", graph.Attrs{"epsilon": 0.0}, x, scale, bias, mean, variance)
	want := []float32{3, 5, 8, 11}
	for i, v := range out.Data() {
		if d := float64(v - want[i]); math.Abs(d) > 1e-5 {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestBatchNormNormalises(t *testing.T) {
	// scale=1, bias=0: y = (x-mean)/sqrt(var+eps).
	x := tensor.FromSlice([]float32{10, 20}, 1, 1, 1, 2)
	one := tensor.Full(1, 1)
	zero := tensor.New(1)
	mean := tensor.FromSlice([]float32{15}, 1)
	variance := tensor.FromSlice([]float32{25}, 1)
	out := runKernel(t, "batchnorm.direct", "BatchNorm", graph.Attrs{"epsilon": 0.0}, x, one, zero, mean, variance)
	if math.Abs(float64(out.At(0, 0, 0, 0)+1)) > 1e-5 || math.Abs(float64(out.At(0, 0, 0, 1)-1)) > 1e-5 {
		t.Fatalf("normalised = %v", out.Data())
	}
}

func TestBatchNormShapeErrors(t *testing.T) {
	g := graph.New("bad")
	x, _ := g.Input("x", []int{1, 3, 2, 2})
	s, _ := g.Const("s", tensor.New(2)) // wrong channel count
	b, _ := g.Const("b", tensor.New(3))
	m, _ := g.Const("m", tensor.New(3))
	v, _ := g.Const("v", tensor.New(3))
	y, _ := g.Add("BatchNorm", "bn", nil, x, s, b, m, v)
	_ = g.MarkOutput(y)
	if err := g.Finalize(); err == nil {
		t.Fatal("BatchNorm channel mismatch not caught")
	}
}

func TestActivations(t *testing.T) {
	x := tensor.FromSlice([]float32{-3, -0.5, 0, 2, 7}, 5)
	relu := runKernel(t, "relu.direct", "Relu", nil, x)
	if !tensor.AllClose(relu, tensor.FromSlice([]float32{0, 0, 0, 2, 7}, 5), 0) {
		t.Fatalf("relu = %v", relu.Data())
	}
	relu6 := runKernel(t, "relu6.direct", "Relu6", nil, x)
	if !tensor.AllClose(relu6, tensor.FromSlice([]float32{0, 0, 0, 2, 6}, 5), 0) {
		t.Fatalf("relu6 = %v", relu6.Data())
	}
	leaky := runKernel(t, "leakyrelu.direct", "LeakyRelu", graph.Attrs{"alpha": 0.5}, x)
	if !tensor.AllClose(leaky, tensor.FromSlice([]float32{-1.5, -0.25, 0, 2, 7}, 5), 1e-6) {
		t.Fatalf("leaky = %v", leaky.Data())
	}
	sig := runKernel(t, "sigmoid.direct", "Sigmoid", nil, tensor.FromSlice([]float32{0}, 1))
	if math.Abs(float64(sig.At(0))-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", sig.At(0))
	}
}

func TestAddMulExact(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2}, 2)
	b := tensor.FromSlice([]float32{10, 20}, 2)
	sum := runKernel(t, "add.direct", "Add", nil, a, b)
	if !tensor.AllClose(sum, tensor.FromSlice([]float32{11, 22}, 2), 0) {
		t.Fatalf("add = %v", sum.Data())
	}
	prod := runKernel(t, "mul.direct", "Mul", nil, a, b)
	if !tensor.AllClose(prod, tensor.FromSlice([]float32{10, 40}, 2), 0) {
		t.Fatalf("mul = %v", prod.Data())
	}
}

// TestAddMulBlocksMatchScalar holds the blocked vector add and multiply to
// the one-element-at-a-time definitions bit for bit — zeros of both signs
// included, whose sum and product signs a careless seed would lose — on
// lengths on both sides of one block and of a vector, with every fused
// activation.
func TestAddMulBlocksMatchScalar(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, n := range []int{1, 7, 8, 9, blockFloats - 1, blockFloats, blockFloats + 1, 3*blockFloats + 13} {
		a := tensor.Rand(tensor.NewRNG(uint64(n)), -1, 1, n)
		b := tensor.Rand(tensor.NewRNG(uint64(n)+1), -1, 1, n)
		for i := 0; i < n; i += 3 {
			a.Data()[i] = []float32{0, negZero, -1}[i/3%3]
			b.Data()[i] = []float32{negZero, 0, 0, negZero}[i/3%4]
		}
		prod := runKernel(t, "mul.direct", "Mul", nil, a, b).Data()
		for i, got := range prod {
			if want := a.Data()[i] * b.Data()[i]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n %d: mul[%d] = %v, want %v", n, i, got, want)
			}
		}
		for _, act := range []string{"", "relu", "relu6", "leakyrelu"} {
			sum := runKernel(t, "add.direct", "Add", graph.Attrs{"activation": act, "alpha": 0.1}, a, b).Data()
			want := make([]float32, n)
			for i := range want {
				want[i] = a.Data()[i] + b.Data()[i]
			}
			applyActivation(want, act, 0.1)
			for i, got := range sum {
				if math.Float32bits(got) != math.Float32bits(want[i]) {
					t.Fatalf("n %d act %q: add[%d] = %v, want %v", n, act, i, got, want[i])
				}
			}
		}
	}
}

func TestAddScalarBroadcast(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3}, 3)
	s := tensor.Scalar(10)
	sum := runKernel(t, "add.direct", "Add", nil, a, s)
	if !tensor.AllClose(sum, tensor.FromSlice([]float32{11, 12, 13}, 3), 0) {
		t.Fatalf("scalar add = %v", sum.Data())
	}
}

func TestBinaryShapeMismatchRejected(t *testing.T) {
	g := graph.New("bad")
	a, _ := g.Input("a", []int{2, 3})
	b, _ := g.Input("b", []int{3, 2})
	y, _ := g.Add("Add", "add", nil, a, b)
	_ = g.MarkOutput(y)
	if err := g.Finalize(); err == nil {
		t.Fatal("incompatible Add shapes not caught")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(seed uint64, cb uint8) bool {
		c := int(cb%16) + 2
		x := tensor.Rand(tensor.NewRNG(seed), -5, 5, 2, c)
		out := runKernel(t, "softmax.direct", "Softmax", nil, x)
		for b := 0; b < 2; b++ {
			var sum float64
			for j := 0; j < c; j++ {
				v := out.At(b, j)
				if v < 0 || v > 1 {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	x := tensor.FromSlice([]float32{1000, 1001}, 1, 2)
	out := runKernel(t, "softmax.direct", "Softmax", nil, x)
	if out.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
	if math.Abs(float64(out.At(0, 0)+out.At(0, 1))-1) > 1e-5 {
		t.Fatal("softmax does not sum to 1")
	}
}

func TestSoftmaxPreservesArgmax(t *testing.T) {
	x := tensor.Rand(tensor.NewRNG(77), -3, 3, 1, 10)
	out := runKernel(t, "softmax.direct", "Softmax", nil, x)
	_, wantArg := x.Max()
	_, gotArg := out.Max()
	if wantArg != gotArg {
		t.Fatal("softmax changed the argmax")
	}
}

func TestSoftmaxAxis(t *testing.T) {
	// Axis 0 over a [2,2]: columns must sum to 1.
	x := tensor.FromSlice([]float32{0, 10, 5, 0}, 2, 2)
	out := runKernel(t, "softmax.direct", "Softmax", graph.Attrs{"axis": 0}, x)
	for j := 0; j < 2; j++ {
		sum := float64(out.At(0, j) + out.At(1, j))
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("column %d sums to %v", j, sum)
		}
	}
}
