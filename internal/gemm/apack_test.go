package gemm

import (
	"fmt"
	"testing"

	"orpheus/internal/tensor"
)

// Differential tests for the A-side virtual operand (Call.APack) and the
// strided-C path (Call.Ldc): a matrix-backed PackSrcA must reproduce the
// explicit-A result bit-for-bit modulo float reassociation, across every
// selectable kernel, batched calls sharing a prepacked B, embedded C
// windows and the fused bias/activation epilogue.

// matSrcA serves dense row-major per-image A matrices through the
// PackPanelA contract — the simplest possible implementation, used as the
// oracle counterpart of the implicit-GEMM convolution gathers.
type matSrcA struct {
	data []float32 // images back to back, each m*k
	m, k int
}

func (s *matSrcA) PackPanelA(dst []float32, img, ii, pp, mc, kc, mr int) {
	a := s.data[img*s.m*s.k:]
	for i := 0; i < mc; i += mr {
		strip := dst[(i/mr)*kc*mr:]
		rows := mc - i
		if rows > mr {
			rows = mr
		}
		for p := 0; p < kc; p++ {
			col := strip[p*mr:]
			for r := 0; r < rows; r++ {
				col[r] = a[(ii+i+r)*s.k+pp+p]
			}
			for r := rows; r < mr; r++ {
				col[r] = 0
			}
		}
	}
}

type apackCase struct {
	m, n, k int
	batch   int // 0/1 = unbatched
}

var apackCases = []apackCase{
	{m: 1, n: 1, k: 1},
	{m: 4, n: 8, k: 4},                // one go-kernel tile
	{m: 7, n: 9, k: 5},                // tails on both edges
	{m: 16, n: 24, k: 32},             // full tiles
	{m: 63, n: 65, k: 127},            // crosses tile boundaries everywhere
	{m: 130, n: 36, k: 300, batch: 1}, // crosses the macro blocks
	{m: 5, n: 6, k: 9, batch: 3},
	{m: 33, n: 17, k: 40, batch: 2},
	{m: 130, n: 12, k: 70, batch: 2}, // multi-macro-panel batched
}

func TestAPackMatchesExplicitA(t *testing.T) {
	const tol = 1e-5
	for _, kn := range kernelLabels() {
		for _, tc := range apackCases {
			images := tc.batch
			if images < 1 {
				images = 1
			}
			for _, packedB := range []bool{false, true} {
				for _, workers := range []int{0, 3} {
					name := fmt.Sprintf("%s/m%d_n%d_k%d_b%d/packedB=%v/w%d",
						kn, tc.m, tc.n, tc.k, images, packedB, workers)
					t.Run(name, func(t *testing.T) {
						withKernel(t, kn, func() {
							r := tensor.NewRNG(uint64(tc.m*1000 + tc.n*10 + tc.k))
							a := make([]float32, images*tc.m*tc.k)
							for i := range a {
								a[i] = r.Uniform(-1, 1)
							}
							b := randMat(r, tc.k, tc.n)

							// Explicit-A reference, one image at a time.
							want := make([]float32, images*tc.m*tc.n)
							for img := 0; img < images; img++ {
								var ctx Context
								ctx.Run(Call{
									A: a[img*tc.m*tc.k:], B: b,
									C: want[img*tc.m*tc.n:],
									M: tc.m, N: tc.n, K: tc.k, Store: true,
								})
							}

							c := Call{
								APack: &matSrcA{data: a, m: tc.m, k: tc.k},
								C:     make([]float32, images*tc.m*tc.n),
								M:     tc.m, N: tc.n, K: tc.k, Store: true,
							}
							if packedB {
								c.PackedB = PrepackB(b, tc.k, tc.n)
							} else {
								c.B = b
							}
							if images > 1 {
								c.Batch = images
								c.StrideC = tc.m * tc.n
							}
							var ctx Context
							if workers > 0 {
								Shared().Run(&ctx, c, workers)
							} else {
								ctx.Run(c)
							}
							if i := relDiffOK(c.C, want, tol); i >= 0 {
								t.Fatalf("APack diverges at C[%d]: got %v want %v", i, c.C[i], want[i])
							}
						})
					})
				}
			}
		}
	}
}

// TestLdcEmbeddedC writes each output image into a window of a wider
// buffer — the grouped-convolution layout where every group owns an
// output-channel slice of the same rows. Gap columns must stay untouched.
func TestLdcEmbeddedC(t *testing.T) {
	const tol = 1e-5
	const m, n, k, pad, images = 13, 9, 21, 5, 2
	ldc := n + pad
	for _, kn := range kernelLabels() {
		for _, workers := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/w%d", kn, workers), func(t *testing.T) {
				withKernel(t, kn, func() {
					r := tensor.NewRNG(99)
					a := make([]float32, images*m*k)
					for i := range a {
						a[i] = r.Uniform(-1, 1)
					}
					b := randMat(r, k, n)
					want := make([]float32, images*m*n)
					for img := 0; img < images; img++ {
						var ctx Context
						ctx.Run(Call{
							A: a[img*m*k:], B: b, C: want[img*m*n:],
							M: m, N: n, K: k, Store: true,
						})
					}

					const sentinel = float32(-123.5)
					cbuf := make([]float32, images*m*ldc)
					for i := range cbuf {
						cbuf[i] = sentinel
					}
					c := Call{
						APack: &matSrcA{data: a, m: m, k: k},
						B:     b, C: cbuf,
						M: m, N: n, K: k, Ldc: ldc, Store: true,
						Batch: images, StrideC: m * ldc,
					}
					var ctx Context
					if workers > 0 {
						Shared().Run(&ctx, c, workers)
					} else {
						ctx.Run(c)
					}
					for img := 0; img < images; img++ {
						for row := 0; row < m; row++ {
							got := cbuf[img*m*ldc+row*ldc:]
							ref := want[img*m*n+row*n:]
							if i := relDiffOK(got[:n], ref[:n], tol); i >= 0 {
								t.Fatalf("img %d row %d col %d: got %v want %v",
									img, row, i, got[i], ref[i])
							}
							for i := n; i < ldc; i++ {
								if got[i] != sentinel {
									t.Fatalf("img %d row %d gap col %d clobbered: %v",
										img, row, i, got[i])
								}
							}
						}
					}
				})
			})
		}
	}
}

// TestAPackBiasColEpilogue pins the fused per-column bias + activation on
// the APack path against a manual post-pass over the plain product.
func TestAPackBiasColEpilogue(t *testing.T) {
	const tol = 1e-5
	const m, n, k = 17, 11, 23
	for _, kn := range kernelLabels() {
		t.Run(kn, func(t *testing.T) {
			withKernel(t, kn, func() {
				r := tensor.NewRNG(7)
				a := make([]float32, m*k)
				for i := range a {
					a[i] = r.Uniform(-1, 1)
				}
				b := randMat(r, k, n)
				bias := make([]float32, n)
				for i := range bias {
					bias[i] = r.Uniform(-2, 2)
				}

				want := make([]float32, m*n)
				var ctx Context
				ctx.Run(Call{A: a, B: b, C: want, M: m, N: n, K: k, Store: true})
				for row := 0; row < m; row++ {
					for col := 0; col < n; col++ {
						v := want[row*n+col] + bias[col]
						if v < 0 {
							v = 0
						}
						want[row*n+col] = v
					}
				}

				got := make([]float32, m*n)
				ctx.Run(Call{
					APack: &matSrcA{data: a, m: m, k: k},
					B:     b, C: got,
					M: m, N: n, K: k, Store: true,
					BiasCol: bias, Act: ActReLU,
				})
				if i := relDiffOK(got, want, tol); i >= 0 {
					t.Fatalf("fused epilogue diverges at C[%d]: got %v want %v", i, got[i], want[i])
				}
			})
		})
	}
}
