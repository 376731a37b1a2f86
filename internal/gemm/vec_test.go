package gemm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// axpyFused reports whether AXPYRow rounds once per element (the FMA
// assembly) rather than after the multiply and again after the add (the
// portable loop on amd64): a·a = 1 + 2⁻¹¹ + 2⁻²⁴ loses its last term when
// rounded to float32, so only a fused a·a − round(a·a) is non-zero.
func axpyFused() bool {
	a := float32(1 + 1.0/4096)
	d := []float32{-(a * a)}
	AXPYRow(d, 1, []float32{a}, 1, a, 1, 1)
	return d[0] != 0
}

// TestAXPYRowAsmMatchesGo pins the dispatched AXPYRow (AVX2/FMA where
// available, otherwise the portable loop, which must then be exact) to
// dst[r*ldd+i] + a*x[r*ldx+i] for every row length across the vector,
// masked and scalar blocks of the assembly body, over 1 and 3 rows, on
// operands at every 4-byte alignment. x ends at the last element
// read and at the end of its backing array, and every float of dst outside
// the rows — before, between and after — must stay untouched.
func TestAXPYRowAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	fused := axpyFused()
	const guard = 1234.5
	for _, rows := range []int{1, 3} {
		for n := 0; n <= 70; n++ {
			for align := 0; align < 4; align++ {
				ldd, ldx := n+3, n+1+align
				x := make([]float32, align+(rows-1)*ldx+n)[align:]
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
						want[at] = buf[at] + a*x[row*ldx+i]
					}
				}
				AXPYRow(buf[align:], ldd, x, ldx, a, n, rows)
				for i, got := range buf {
					if (want[i] == guard || !fused) && got != want[i] {
						t.Fatalf("rows %d n %d align %d: element %d = %v, want exactly %v", rows, n, align, i-align, got, want[i])
					}
					if math.Abs(float64(got-want[i])) > 1e-6 {
						t.Fatalf("rows %d n %d align %d: element %d = %v, want %v", rows, n, align, i-align, got, want[i])
					}
				}
			}
		}
	}
}

// TestMaxRowAsmMatchesGo pins the dispatched MaxRow to its portable body
// bit for bit — −Inf seeds, zeros of both signs and NaNs in x included —
// for every row length across the vector, partial and scalar blocks of the
// AVX2 body, over 1 to 3 rows, at every 4-byte alignment. x ends at the
// last element read, and dst outside the rows must stay untouched.
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
	for rows := 1; rows <= 3; rows++ {
		for n := 1; n <= 40; n++ {
			for align := 0; align < 4; align++ {
				ldd, ldx := n+3, n+1+align
				x := make([]float32, align+(rows-1)*ldx+n)[align:]
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
				maxRowGo(want[align:], ldd, x, ldx, n, rows)
				MaxRow(got[align:], ldd, x, ldx, n, rows)
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("rows %d n %d align %d: element %d = %v, want exactly %v", rows, n, align, i-align, got[i], want[i])
					}
				}
			}
		}
	}
}

// gatherPayload are the words TestGatherTapsAsmMatchesGo mixes into x:
// the int8 pack walks move k-quad words through GatherTaps, so x holds
// arbitrary bit patterns — signalling NaNs of both signs, which an
// arithmetic path would quiet, included — and every one must arrive
// unchanged.
var gatherPayload = []uint32{0x7F800001, 0xFF800001, 0x7FBFFFFF, 0x7FC00000, 0x80000000, 0xFFFFFFFF}

// checkGatherTaps runs body — or, for body −1, the exported GatherTaps with
// its bounds checks — and the portable body on the same operands, and
// fails unless dst matches bit for bit, floats around and between its
// rows included: a body may write nothing but its rows' n elements.
func checkGatherTaps(t *testing.T, body int, x []float32, tap []int, n, stride, ldd int) {
	t.Helper()
	const guard = 1234.5
	got := make([]float32, (len(tap)-1)*ldd+n+17)
	for i := range got {
		got[i] = guard
	}
	want := append([]float32(nil), got...)
	gatherTapsGo(want, ldd, x, tap, n, stride)
	if body < 0 {
		GatherTaps(got, ldd, x, tap, n, stride)
	} else {
		gatherTaps(body, got, ldd, x, tap, n, stride)
	}
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("body %d stride %d n %d ldd %d taps %v: element %d = %#08x, want %#08x", body, stride, n, ldd, tap, i, g, w)
		}
	}
}

// TestGatherTapsAsmMatchesGo pins every GatherTaps body this host has —
// AVX-512 and AVX2 called directly, so an AVX-512 host still runs the AVX2
// one — to the portable body bit for bit: n 1–40 (the masked block alone
// and after one or more whole blocks), strides 1 to 3, ldd at, past and
// well past n, random non-decreasing taps with repeats, x starting 0–3
// floats into its allocation and ending at the last element the last row
// reads. Then the wrapper must panic, never fault, on every out-of-range
// call.
func TestGatherTapsAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for body := bodyGo; body <= vecBody; body++ {
		for _, stride := range []int{1, 2, 3} {
			for n := 1; n <= 40; n++ {
				for _, ldd := range []int{n, n + 1, max(n, 32), 2*n + 5} {
					align := r.Intn(4)
					tap := make([]int, 1+r.Intn(5))
					tap[0] = r.Intn(4)
					for i := 1; i < len(tap); i++ {
						tap[i] = tap[i-1] + r.Intn(n*stride+2)
					}
					x := make([]float32, align+tap[len(tap)-1]+(n-1)*stride+1)[align:]
					for i := range x {
						b := r.Uint32()
						if r.Intn(3) == 0 {
							b = gatherPayload[r.Intn(len(gatherPayload))]
						}
						x[i] = math.Float32frombits(b)
					}
					checkGatherTaps(t, body, x, tap, n, stride, ldd)
				}
			}
		}
	}

	x, dst := make([]float32, 20), make([]float32, 20)
	for _, c := range []struct {
		name           string
		dst            []float32
		tap            []int
		n, stride, ldd int
	}{
		{"negative tap", dst, []int{-1, 0}, 4, 1, 4},
		{"last read one past x", dst, []int{0, 17}, 4, 1, 4},
		{"stride-2 last read one past x", dst, []int{0, 14}, 4, 2, 4},
		{"last tap below first", dst, []int{3, 2}, 4, 1, 4},
		{"zero stride", dst, []int{0}, 4, 0, 4},
		{"stride overflows", dst, []int{0}, 3, math.MaxInt/2 + 1, 4},
		{"dst one short", dst[:11], []int{0, 1, 2}, 4, 1, 4},
		{"negative ldd", dst, []int{0, 1}, 4, 1, -4},
		{"ldd overflows", dst, []int{0, 1, 2}, 4, 1, math.MaxInt/2 + 1},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "gemm: GatherTaps") {
					t.Errorf("%s: recovered %q, want a gemm: GatherTaps panic", c.name, msg)
				}
			}()
			GatherTaps(c.dst, c.ldd, x, c.tap, c.n, c.stride)
		}()
	}
}

// FuzzGatherTaps holds the dispatched GatherTaps, bounds checks included,
// to the portable body over fuzzed n, stride, ldd, tap steps and payload
// words; x always ends at the last element read.
func FuzzGatherTaps(f *testing.F) {
	f.Add(uint8(17), uint8(0), uint8(15), []byte{2, 9, 0, 30}, []byte{0x01, 0x00, 0x80, 0x7F})
	f.Add(uint8(32), uint8(1), uint8(0), []byte{0, 64, 64}, []byte{0xFF, 0xFF, 0xBF, 0x7F, 0, 0, 0xC0, 0xFF})
	f.Fuzz(func(t *testing.T, n, stride, ldd uint8, steps, payload []byte) {
		nn, s := 1+int(n)%48, 1+int(stride)%3
		tap := make([]int, 1+min(len(steps), 64))
		for i := 1; i < len(tap); i++ {
			tap[i] = tap[i-1] + int(steps[i-1])%(nn*s+2)
		}
		x := make([]float32, tap[len(tap)-1]+(nn-1)*s+1)
		for i := range x {
			var b uint32
			if len(payload) >= 4 {
				at := (4 * i) % (len(payload) - 3)
				b = binary.LittleEndian.Uint32(payload[at:]) + uint32(i/(len(payload)-3))
			}
			x[i] = math.Float32frombits(b)
		}
		checkGatherTaps(t, -1, x, tap, nn, s, nn+int(ldd)%40)
	})
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
