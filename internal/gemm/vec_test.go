package gemm

import (
	"math"
	"math/rand"
	"testing"
)

// axpyFused reports whether AXPYRow rounds once per element (the FMA
// assembly) rather than after the multiply and again after the add (the
// portable loop on amd64): a·a = 1 + 2⁻¹¹ + 2⁻²⁴ loses its last term when
// rounded to float32, so only a fused a·a − round(a·a) is non-zero.
func axpyFused() bool {
	a := float32(1 + 1.0/4096)
	d := []float32{-(a * a)}
	AXPYRow(d, 1, []float32{a}, 1, 1, a, 1, 1)
	return d[0] != 0
}

// TestAXPYRowAsmMatchesGo pins the dispatched AXPYRow (AVX2/FMA at strides
// 1 and 2 where available, otherwise the portable loop, which must then be
// exact) to dst[r*ldd+i] + a*x[r*ldx+i*stride] for every row length across
// the vector, masked and scalar blocks of the assembly bodies, over 1 and 3
// rows, on operands at every 4-byte alignment. x ends at the last element
// read and at the end of its backing array, and every float of dst outside
// the rows — before, between and after — must stay untouched.
func TestAXPYRowAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	fused := axpyFused()
	const guard = 1234.5
	for _, stride := range []int{1, 2, 3} {
		for _, rows := range []int{1, 3} {
			for n := 0; n <= 70; n++ {
				for align := 0; align < 4; align++ {
					ldd, ldx := n+3, (n+1)*stride+align
					x := make([]float32, align+(rows-1)*ldx+max(n-1, 0)*stride+1)[align:]
					for i := range x {
						x[i] = r.Float32()*2 - 1
					}
					buf := make([]float32, align+rows*ldd+8)
					want := make([]float32, len(buf))
					for i := range buf {
						buf[i], want[i] = guard, guard
					}
					a := r.Float32()*2 - 1
					for row := 0; row < rows; row++ {
						for i := 0; i < n; i++ {
							at := align + row*ldd + i
							buf[at] = r.Float32()*2 - 1
							want[at] = buf[at] + a*x[row*ldx+i*stride]
						}
					}
					AXPYRow(buf[align:], ldd, x, ldx, stride, a, n, rows)
					for i, got := range buf {
						if (want[i] == guard || !fused) && got != want[i] {
							t.Fatalf("stride %d rows %d n %d align %d: element %d = %v, want exactly %v", stride, rows, n, align, i-align, got, want[i])
						}
						if math.Abs(float64(got-want[i])) > 1e-6 {
							t.Fatalf("stride %d rows %d n %d align %d: element %d = %v, want %v", stride, rows, n, align, i-align, got, want[i])
						}
					}
				}
			}
		}
	}
}

// TestMaxRowAsmMatchesGo pins the dispatched MaxRow to its portable body
// bit for bit — −Inf seeds, zeros of both signs and NaNs in x included —
// for every row length across the vector, partial and scalar blocks of the
// AVX2 bodies, over 1 to 3 rows, at every 4-byte alignment. x ends at the
// last element read, which at stride 2 is the case the over-read guard is
// for, and dst outside the rows must stay untouched.
func TestMaxRowAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	special := []float32{float32(math.Inf(-1)), 0, negZero, float32(math.NaN())}
	draw := func() float32 {
		if r.Intn(4) == 0 {
			return special[r.Intn(len(special))]
		}
		return r.Float32()*2 - 1
	}
	const guard = 1234.5
	for _, stride := range []int{1, 2, 3} {
		for rows := 1; rows <= 3; rows++ {
			for n := 1; n <= 40; n++ {
				for align := 0; align < 4; align++ {
					ldd, ldx := n+3, (n+1)*stride+align
					x := make([]float32, align+(rows-1)*ldx+(n-1)*stride+1)[align:]
					for i := range x {
						x[i] = draw()
					}
					got := make([]float32, align+rows*ldd+8)
					for i := range got {
						got[i] = guard
					}
					for row := 0; row < rows; row++ {
						for i := 0; i < n; i++ {
							// dst is never NaN: it starts at −Inf and only
							// takes values that compared greater.
							v := draw()
							for v != v {
								v = draw()
							}
							got[align+row*ldd+i] = v
						}
					}
					want := append([]float32(nil), got...)
					maxRowGo(want[align:], ldd, x, ldx, stride, n, rows)
					MaxRow(got[align:], ldd, x, ldx, stride, n, rows)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("stride %d rows %d n %d align %d: element %d = %v, want exactly %v", stride, rows, n, align, i-align, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestGatherRowAsmMatchesGo pins GatherRow to dst[i] = x[i*stride] bit for
// bit for every length across its vector head and scalar tail, x ending at
// the last element read. The int8 pack walks move k-quad words through
// it, so x holds arbitrary bit patterns — signalling NaNs of both signs,
// which an arithmetic path would quiet, included — and every one must
// arrive unchanged.
func TestGatherRowAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	special := []uint32{0x7F800001, 0xFF800001, 0x7FBFFFFF, 0x7FC00000, 0x80000000, 0xFFFFFFFF}
	for _, stride := range []int{1, 2, 3} {
		for n := 0; n <= 40; n++ {
			for align := 0; align < 4; align++ {
				x := make([]float32, align+max(n-1, 0)*stride+1)[align:]
				for i := range x {
					b := r.Uint32()
					if r.Intn(3) == 0 {
						b = special[r.Intn(len(special))]
					}
					x[i] = math.Float32frombits(b)
				}
				got := make([]float32, n+2)
				got[n], got[n+1] = 1234.5, 1234.5
				GatherRow(got[:n], x, stride)
				for i := 0; i < n; i++ {
					if g, w := math.Float32bits(got[i]), math.Float32bits(x[i*stride]); g != w {
						t.Fatalf("stride %d n %d align %d: element %d = %#08x, want %#08x", stride, n, align, i, g, w)
					}
				}
				if got[n] != 1234.5 || got[n+1] != 1234.5 {
					t.Fatalf("stride %d n %d align %d: wrote past dst", stride, n, align)
				}
			}
		}
	}
}

// TestRequantRowAsmMatchesGo pins requantRow — the AVX2 head where there
// is one — to its Go body bit for bit, with and without ReLU, at every
// length 0–70 and every 4-byte alignment of dst and acc within a vector:
// −0 results (acc equal to comp under a negative scale and a −0 bias), NaN
// ones (an infinite scale times zero, a NaN bias), comp at both int32
// extremes, where the subtraction wraps. The floats on either side of the
// row must stay untouched.
func TestRequantRowAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	cases := []struct {
		comp    int32
		s, bias float32
	}{
		{12345, 0.003, 0.5},
		{0, -0.01, negZero},
		{math.MinInt32, 1e-6, -1},
		{math.MaxInt32, -1e-6, 2},
		{7, inf, 0},
		{-3, 0.25, nan},
	}
	const guard = 1234.5
	for _, c := range cases {
		for _, relu := range []bool{false, true} {
			for n := 0; n <= 70; n++ {
				for align := 0; align < 8; align++ {
					acc := make([]int32, align+n)[align:]
					for i := range acc {
						switch r.Intn(4) {
						case 0:
							acc[i] = c.comp
						case 1:
							acc[i] = int32(r.Uint32())
						default:
							acc[i] = c.comp + int32(r.Intn(2001)-1000)
						}
					}
					da := 7 - align
					got := make([]float32, da+n+2)
					for i := range got {
						got[i] = guard
					}
					want := append([]float32(nil), got...)
					for i, a := range acc {
						v := float32(a-c.comp)*c.s + c.bias
						if relu {
							v = activate(v, ActReLU, 0)
						}
						want[da+i] = v
					}
					requantRow(got[da:da+n], acc, c.comp, c.s, c.bias, relu)
					for i := range got {
						if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
							t.Fatalf("%+v relu %v n %d align %d: element %d = %#08x, want %#08x", c, relu, n, align, i-da, g, w)
						}
					}
				}
			}
		}
	}
}
