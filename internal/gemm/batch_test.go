package gemm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refStridedBatch computes the batched call the obvious way: one naive
// GEMM per image over the strided windows.
func refStridedBatch(a, b, c []float32, m, n, k, batch, strideB, strideC int) {
	for img := 0; img < batch; img++ {
		Naive(a, b[img*strideB:], c[img*strideC:], m, n, k)
	}
}

// TestStridedBatchMatchesLooped checks Call{Batch, BPack, StrideC}, each
// image's B a window of one strided matrix (matrixSrc), against per-image
// GEMMs for single-threaded, prepacked-A and pooled multi-worker
// execution, across shapes that cover single-tile and multi-tile grids.
func TestStridedBatchMatchesLooped(t *testing.T) {
	shapes := []struct{ m, n, k, batch int }{
		{4, 8, 4, 1},
		{16, 49, 32, 3},   // sub-tile N with edge strips
		{64, 196, 128, 8}, // pointwise-conv shaped
		{130, 520, 70, 2}, // crosses macro-tile boundaries in both dims
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("m%dn%dk%db%d", sh.m, sh.n, sh.k, sh.batch), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(sh.m*1000 + sh.n)))
			// Strides with slack beyond the dense matrix size.
			strideB := sh.k*sh.n + 3
			strideC := sh.m*sh.n + 5
			a := make([]float32, sh.m*sh.k)
			b := make([]float32, (sh.batch-1)*strideB+sh.k*sh.n)
			for i := range a {
				a[i] = r.Float32() - 0.5
			}
			for i := range b {
				b[i] = r.Float32() - 0.5
			}
			want := make([]float32, (sh.batch-1)*strideC+sh.m*sh.n)
			refStridedBatch(a, b, want, sh.m, sh.n, sh.k, sh.batch, strideB, strideC)

			check := func(label string, got []float32) {
				t.Helper()
				for i := range want {
					d := got[i] - want[i]
					if d < -1e-3 || d > 1e-3 {
						t.Fatalf("%s: C[%d] = %g, want %g", label, i, got[i], want[i])
					}
				}
			}
			call := Call{A: a, BPack: &matrixSrc{b: b, k: sh.k, n: sh.n, strideB: strideB},
				M: sh.m, N: sh.n, K: sh.k, Store: true, Batch: sh.batch, StrideC: strideC}

			var ctx Context
			got := make([]float32, len(want))
			c1 := call
			c1.C = got
			ctx.Run(c1)
			check("context", got)

			pa := PrepackA(a, sh.m, sh.k)
			got2 := make([]float32, len(want))
			c2 := call
			c2.A, c2.PackedA, c2.C = nil, pa, got2
			ctx.Run(c2)
			check("prepacked", got2)

			for _, workers := range []int{2, 4} {
				got3 := make([]float32, len(want))
				c3 := call
				c3.C = got3
				Shared().Run(&ctx, c3, workers)
				check(fmt.Sprintf("pool-%d", workers), got3)
			}
		})
	}
}

// TestBatchedCallNeedsPackSource pins that a raw or prepacked B is one
// image's: a batched call without a BPack or APack source panics, whether
// its B is raw, prepacked or, at K = 0, absent.
func TestBatchedCallNeedsPackSource(t *testing.T) {
	const m, n, k, batch = 4, 8, 4, 2
	a, b, c := make([]float32, m*k), make([]float32, batch*k*n), make([]float32, batch*m*n)
	for _, tc := range []struct {
		name, want string
		call       Call
	}{
		{"raw B", "gemm: batched call needs a BPack or APack source",
			Call{A: a, B: b, C: c, M: m, N: n, K: k, Store: true, Batch: batch, StrideC: m * n}},
		{"PackedB", "gemm: batched call needs a BPack or APack source",
			Call{A: a, PackedB: PrepackB(b[:k*n], k, n), C: c, M: m, N: n, K: k, Store: true, Batch: batch, StrideC: m * n}},
		{"K=0", "gemm: batched call needs a BPack or APack source",
			Call{C: c, M: m, N: n, Store: true, Batch: batch, StrideC: m * n}},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, tc.want) {
					t.Errorf("%s: recovered %q, want %q", tc.name, msg, tc.want)
				}
			}()
			var ctx Context
			ctx.Run(tc.call)
		}()
	}
}
