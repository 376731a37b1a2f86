package gemm

import (
	"fmt"
	"math"
	"testing"

	"orpheus/internal/tensor"
)

// Tests for the virtual B operand (Call.BPack) and the fused epilogue
// (BiasRow/BiasCol/Act): both must be invisible at the numbers level —
// a BPack wrapping a dense matrix must reproduce the explicit-B result
// bit for bit, and the epilogue must match a separate post-GEMM sweep —
// on every selectable kernel, through Context.Run and the pool path.

// matrixSrc adapts a materialised strided batch of B matrices to the
// PackSrc interface; it is the semantic reference for panel packing.
type matrixSrc struct {
	b       []float32
	k, n    int
	strideB int
}

func (s *matrixSrc) PackPanel(dst []float32, img, pp, jj, kc, nc, nr int) {
	packB(dst, s.b[img*s.strideB:], pp, jj, kc, nc, s.n, nr)
}

func TestBPackMatchesExplicitB(t *testing.T) {
	for _, kn := range kernelLabels() {
		for _, dc := range diffCases {
			if dc.k == 0 {
				continue // a BPack call with K == 0 packs nothing
			}
			for _, workers := range []int{0, 3} {
				for _, store := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/workers=%d/store=%v", kn, dc, workers, store)
					t.Run(name, func(t *testing.T) {
						withKernel(t, kn, func() {
							a, b, cInit := diffBuffers(dc, uint64(dc.m+dc.n+dc.k+7))
							want := append([]float32(nil), cInit...)
							if dc.batch > 1 {
								// An explicit B is one image's: the
								// reference runs the images one by one.
								for img := 0; img < dc.batch; img++ {
									var ctx Context
									ctx.Run(Call{A: a, B: b[img*(dc.k*dc.n+dc.padB):], C: want[img*(dc.m*dc.n+dc.padC):],
										M: dc.m, N: dc.n, K: dc.k, Store: store})
								}
							} else {
								want = runDiffCall(dc, variant{workers: workers}, a, b, cInit, store)
							}

							c := Call{M: dc.m, N: dc.n, K: dc.k, Store: store}
							strideB := 0
							if dc.batch > 1 {
								c.Batch = dc.batch
								strideB = dc.k*dc.n + dc.padB
								c.StrideC = dc.m*dc.n + dc.padC
							}
							c.A = a
							c.BPack = &matrixSrc{b: b, k: dc.k, n: dc.n, strideB: strideB}
							c.C = append([]float32(nil), cInit...)
							var ctx Context
							if workers > 0 {
								Shared().Run(&ctx, c, workers)
							} else {
								ctx.Run(c)
							}
							for i := range want {
								if c.C[i] != want[i] {
									t.Fatalf("BPack diverges at C[%d]: got %v want %v", i, c.C[i], want[i])
								}
							}
						})
					})
				}
			}
		}
	}
}

// epilogueRef applies the epilogue the slow explicit way over a full
// strided batch result.
func epilogueRef(c []float32, m, n, images, strideC int, biasRow, biasCol []float32, act Activation, alpha float32) {
	for img := 0; img < images; img++ {
		for r := 0; r < m; r++ {
			for j := 0; j < n; j++ {
				v := c[img*strideC+r*n+j]
				// The epilogue adds both biases as one pre-summed term;
				// mirror that so the comparison is exact.
				var badd float32
				if biasRow != nil {
					badd += biasRow[r]
				}
				if biasCol != nil {
					badd += biasCol[j]
				}
				v += badd
				switch act {
				case ActReLU:
					if v < 0 {
						v = 0
					}
				case ActReLU6:
					v = float32(math.Min(math.Max(float64(v), 0), 6))
				case ActLeakyReLU:
					if v < 0 {
						v = alpha * v
					}
				}
				c[img*strideC+r*n+j] = v
			}
		}
	}
}

func TestEpilogueMatchesPostSweep(t *testing.T) {
	acts := []Activation{ActNone, ActReLU, ActReLU6, ActLeakyReLU}
	for _, kn := range kernelLabels() {
		for _, dc := range diffCases {
			for _, workers := range []int{0, 3} {
				for ai, act := range acts {
					name := fmt.Sprintf("%s/%s/workers=%d/act=%d", kn, dc, workers, ai)
					t.Run(name, func(t *testing.T) {
						withKernel(t, kn, func() {
							images := dc.batch
							if images < 2 {
								images = 1
							}
							a, b, cInit := diffBuffers(dc, uint64(dc.m*31+dc.n*7+dc.k))
							r := tensor.NewRNG(99)
							biasRow := make([]float32, dc.m)
							biasCol := make([]float32, dc.n)
							for i := range biasRow {
								biasRow[i] = r.Uniform(-1, 1)
							}
							for i := range biasCol {
								biasCol[i] = r.Uniform(-1, 1)
							}
							// Reference: plain store GEMM + explicit sweep.
							want := runDiffCall(dc, variant{}, a, b, cInit, true)
							strideC := dc.m * dc.n
							if dc.batch > 1 {
								strideC += dc.padC
							}
							epilogueRef(want, dc.m, dc.n, images, strideC, biasRow, biasCol, act, 0.125)

							c := Call{A: a, B: b, M: dc.m, N: dc.n, K: dc.k, Store: true,
								BiasRow: biasRow, BiasCol: biasCol, Act: act, Alpha: 0.125}
							if dc.batch > 1 {
								c.Batch, c.B = dc.batch, nil
								c.BPack = &matrixSrc{b: b, k: dc.k, n: dc.n, strideB: dc.k*dc.n + dc.padB}
								c.StrideC = dc.m*dc.n + dc.padC
							}
							c.C = append([]float32(nil), cInit...)
							var ctx Context
							if workers > 0 {
								Shared().Run(&ctx, c, workers)
							} else {
								ctx.Run(c)
							}
							for i := range want {
								if c.C[i] != want[i] {
									t.Fatalf("epilogue diverges at C[%d]: got %v want %v", i, c.C[i], want[i])
								}
							}
						})
					})
				}
			}
		}
	}
}

// TestEpilogueZeroK pins the K == 0 store case: C is zeroed and the
// epilogue still applies (bias + activation over zeros).
func TestEpilogueZeroK(t *testing.T) {
	const m, n = 5, 9
	biasRow := []float32{1, -2, 3, -4, 5}
	c := make([]float32, m*n)
	for i := range c {
		c[i] = 42
	}
	var ctx Context
	ctx.Run(Call{C: c, M: m, N: n, K: 0, Store: true, BiasRow: biasRow, Act: ActReLU})
	for r := 0; r < m; r++ {
		want := biasRow[r]
		if want < 0 {
			want = 0
		}
		for j := 0; j < n; j++ {
			if c[r*n+j] != want {
				t.Fatalf("C[%d][%d] = %v, want %v", r, j, c[r*n+j], want)
			}
		}
	}
}

func TestPoolSweep(t *testing.T) {
	r := tensor.NewRNG(7)
	const rows, rowLen = 37, 53
	bias := make([]float32, 5)
	for i := range bias {
		bias[i] = r.Uniform(-1, 1)
	}
	data := make([]float32, rows*rowLen)
	for i := range data {
		data[i] = r.Uniform(-3, 3)
	}
	want := append([]float32(nil), data...)
	for rr := 0; rr < rows; rr++ {
		for j := 0; j < rowLen; j++ {
			v := want[rr*rowLen+j] + bias[rr%len(bias)]
			if v < 0 {
				v = 0
			}
			want[rr*rowLen+j] = v
		}
	}
	for _, workers := range []int{1, 4} {
		got := append([]float32(nil), data...)
		Shared().Sweep(got, bias, rows, rowLen, ActReLU, 0, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sweep diverges at [%d]: got %v want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// applyActivationRow is the activation in its original form — a branch on
// the sign of each value — kept as the oracle for ActivateRow's selects
// and for storeTwoPass.
func applyActivationRow(row []float32, act Activation, alpha float32) {
	switch act {
	case ActNone:
	case ActReLU:
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	case ActReLU6:
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			} else if v > 6 {
				row[i] = 6
			}
		}
	case ActLeakyReLU:
		for i, v := range row {
			if v < 0 {
				row[i] = alpha * v
			}
		}
	}
}

// TestActivateRowMatchesBranches holds ActivateRow and the fused-bias form
// bit for bit to the branching loops they replace: values either side of
// every threshold, −0, ±Inf, NaN and denormals mixed into random ones, at
// every row length across the vector body and the scalar tail and every
// 4-byte alignment, in place and between slices.
func TestActivateRowMatchesBranches(t *testing.T) {
	special := []float32{0, negZero, 1, -1, 5.9999995, 6, 6.0000005, 7, -7, 1e-42, -1e-42,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32}
	r := tensor.NewRNG(23)
	back := tensor.Rand(r, -8, 8, 80).Data()
	for i := range back {
		if i%3 == 0 {
			back[i] = special[(i/3)%len(special)]
		}
	}
	for _, act := range []Activation{ActNone, ActReLU, ActReLU6, ActLeakyReLU} {
		for _, bias := range []float32{0, 0.25, -6, 6} {
			for n := 0; n <= 70; n++ {
				src := back[n%4:][:n]
				want := append([]float32(nil), src...)
				got := make([]float32, n+1)[1:] // dst and src at different alignments
				if bias == 0 {
					ActivateRow(got, src, act, 0.1)
				} else {
					for i := range want {
						want[i] += bias
					}
					biasActivateRow(got, src, bias, act, 0.1)
				}
				applyActivationRow(want, act, 0.1)
				inPlace := append([]float32(nil), src...)
				if bias == 0 {
					ActivateRow(inPlace, inPlace, act, 0.1)
				} else {
					biasActivateRow(inPlace, inPlace, bias, act, 0.1)
				}
				for i := range want {
					w := math.Float32bits(want[i])
					if g, p := math.Float32bits(got[i]), math.Float32bits(inPlace[i]); g != w || p != w {
						t.Fatalf("act %d bias %v n %d: f(%v) = %#x, in place %#x, want %#x", act, bias, n, src[i], g, p, w)
					}
				}
			}
		}
	}
}
