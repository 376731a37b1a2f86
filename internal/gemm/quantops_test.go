package gemm

import (
	"math/rand"
	"testing"
)

// TestMinMaxF32MatchesScalar pins the dispatched MinMaxF32 (AVX2 where
// available) to the portable reduction across lengths straddling the
// 8-lane body/tail split.
func TestMinMaxF32MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 15, 16, 31, 33, 100, 1024, 1027} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.NormFloat64() * 10)
		}
		lo, hi := MinMaxF32(v)
		var wantLo, wantHi float32
		if n > 0 {
			wantLo, wantHi = minMaxF32Go(v)
		}
		if lo != wantLo || hi != wantHi {
			t.Errorf("n=%d: MinMaxF32 = (%g, %g), scalar = (%g, %g)", n, lo, hi, wantLo, wantHi)
		}
	}
}

// TestQuantizeU8MatchesScalar pins the dispatched QuantizeU8 to the
// portable loop byte for byte, including out-of-range values that must
// clamp and lengths straddling the 32-element body/tail split.
func TestQuantizeU8MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 100, 1024, 1029} {
		src := make([]float32, n)
		for i := range src {
			switch i % 5 {
			case 0:
				src[i] = float32(r.NormFloat64() * 100) // mostly in range
			case 1:
				src[i] = float32(r.NormFloat64() * 10000) // often clamps
			default:
				src[i] = float32(r.Float64()*300 - 50)
			}
		}
		inv, zf := float32(0.73), float32(128.5)
		got := make([]byte, n)
		want := make([]byte, n)
		QuantizeU8(got, src, inv, zf)
		quantizeU8Go(want, src, inv, zf)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: QuantizeU8[%d] = %d, scalar = %d (src %g)", n, i, got[i], want[i], src[i])
			}
		}
	}
}

// TestInterleaveQuadsAsmMatchesGo pins the dispatched InterleaveQuads to
// dst[4i+t] = r_t[i] computed bytewise, for every length across the
// 16/8/4/1-column blocks of the AVX2 body, on sources and destinations at
// every alignment, with rows that end at the last byte read, and requires
// the bytes on either side of the 4n written to stay untouched.
func TestInterleaveQuadsAsmMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	back := make([]byte, 4*(70+9))
	r.Read(back)
	for n := 0; n <= 70; n++ {
		for align := 0; align < 4; align++ {
			var rows [4][]byte
			for t := range rows {
				rows[t] = back[t*(70+8)+align+t:][:max(n, 1)]
			}
			const guard = 0xEE
			buf := make([]byte, align+4*n+8)
			for i := range buf {
				buf[i] = guard
			}
			InterleaveQuads(buf[align:], rows[0], rows[1], rows[2], rows[3], n)
			for i, b := range buf {
				want := byte(guard)
				if c := i - align; c >= 0 && c < 4*n {
					want = rows[c%4][c/4]
				}
				if b != want {
					t.Fatalf("n %d align %d: byte %d = %#x, want %#x", n, align, i-align, b, want)
				}
			}
		}
	}
}
