package gemm

import (
	"testing"
	"testing/quick"

	"orpheus/internal/tensor"
)

func randMat(r *tensor.RNG, m, n int) []float32 {
	d := make([]float32, m*n)
	for i := range d {
		d[i] = r.Uniform(-1, 1)
	}
	return d
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func TestNaiveIdentity(t *testing.T) {
	// A · I = A.
	const n = 7
	r := tensor.NewRNG(1)
	a := randMat(r, n, n)
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	c := make([]float32, n*n)
	Naive(a, id, c, n, n, n)
	if maxDiff(a, c) != 0 {
		t.Fatal("A*I != A")
	}
}

func TestNaiveKnownValues(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	Naive(a, b, c, 2, 2, 2)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestNaiveAccumulates(t *testing.T) {
	a := []float32{1}
	b := []float32{2}
	c := []float32{10}
	Naive(a, b, c, 1, 1, 1)
	if c[0] != 12 {
		t.Fatalf("GEMM should accumulate into C: got %v", c[0])
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("undersized buffer did not panic")
		}
	}()
	Naive(make([]float32, 3), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

func TestPackedMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {4, 8, 4}, {5, 9, 3}, {64, 64, 64}, {63, 65, 127}, {130, 258, 300}, {200, 12, 500},
		{3, 5, 7}, {16, 16, 16}, {65, 33, 129}, {128, 200, 96}} {
		m, n, k := dims[0], dims[1], dims[2]
		r := tensor.NewRNG(uint64(1000 + m + n + k))
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		Naive(a, b, want, m, n, k)
		new(Context).Run(Call{A: a, B: b, C: got, M: m, N: n, K: k})
		if d := maxDiff(want, got); d > 1e-3 {
			t.Fatalf("packed Call differs from Naive for %v: %v", dims, d)
		}
	}
}

func TestPackedContextReuse(t *testing.T) {
	var ctx Context
	r := tensor.NewRNG(9)
	for trial := 0; trial < 3; trial++ {
		m, n, k := 33+trial, 47+trial, 29+trial
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		Naive(a, b, want, m, n, k)
		ctx.Run(Call{A: a, B: b, C: got, M: m, N: n, K: k})
		if d := maxDiff(want, got); d > 1e-3 {
			t.Fatalf("trial %d: context-reused Call differs: %v", trial, d)
		}
	}
}

func TestPackedZeroDims(t *testing.T) {
	// Must not panic or write anything.
	new(Context).Run(Call{M: 0, N: 5, K: 3})
	new(Context).Run(Call{M: 4, N: 0, K: 3})
	c := []float32{1, 2, 3, 4}
	new(Context).Run(Call{C: c, M: 2, N: 2, K: 0})
	if c[0] != 1 || c[3] != 4 {
		t.Fatal("k=0 GEMM should leave C unchanged")
	}
}

func TestPropPackedAssociativeWithScaling(t *testing.T) {
	// (sA)·B == s(A·B) for the packed kernel.
	f := func(seed uint64, sb uint8) bool {
		s := float32(sb%7) + 1
		m, n, k := 17, 23, 19
		r := tensor.NewRNG(seed)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		sa := make([]float32, len(a))
		for i := range a {
			sa[i] = s * a[i]
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		new(Context).Run(Call{A: sa, B: b, C: c1, M: m, N: n, K: k})
		new(Context).Run(Call{A: a, B: b, C: c2, M: m, N: n, K: k})
		for i := range c2 {
			c2[i] *= s
		}
		return maxDiff(c1, c2) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPackedDistributes(t *testing.T) {
	// A·(B+C) == A·B + A·C.
	f := func(seed uint64) bool {
		m, n, k := 13, 11, 9
		r := tensor.NewRNG(seed)
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		c := randMat(r, k, n)
		bc := make([]float32, k*n)
		for i := range bc {
			bc[i] = b[i] + c[i]
		}
		lhs := make([]float32, m*n)
		new(Context).Run(Call{A: a, B: bc, C: lhs, M: m, N: n, K: k})
		rhs := make([]float32, m*n)
		new(Context).Run(Call{A: a, B: b, C: rhs, M: m, N: n, K: k})
		new(Context).Run(Call{A: a, B: c, C: rhs, M: m, N: n, K: k})
		return maxDiff(lhs, rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
