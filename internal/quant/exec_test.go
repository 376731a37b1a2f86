package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// quantizeRowsBranchy is QuantizeRowsInto as it was written before it went
// branch-free: the oracle for its rounding, sign and clamp.
func quantizeRowsBranchy(data []int8, scales []float32, w []float32, rows, per int, qmax int32) {
	fq := float32(qmax)
	for r := 0; r < rows; r++ {
		row := w[r*per : (r+1)*per]
		var maxAbs float32
		for _, v := range row {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / fq
		if scale == 0 {
			scale = 1
		}
		scales[r] = scale
		inv := 1 / scale
		out := data[r*per : (r+1)*per]
		for i, v := range row {
			f := v * inv
			var q int32
			if f >= 0 {
				q = int32(f + 0.5)
			} else {
				q = -int32(0.5 - f)
			}
			if q > qmax {
				q = qmax
			} else if q < -qmax {
				q = -qmax
			}
			out[i] = int8(q)
		}
	}
}

// TestQuantizeRowsIntoMatchesBranchy holds QuantizeRowsInto to the
// branching loop it replaced, scale bits and every quantized value, on
// rows whose scale is exactly 1 so the values are the quotients: ±0.5 ties
// at both ends of the range, −0 and +0, ±qmax and the ±(qmax − 0.5) ties
// next to them; on an all-zero and an all-−0 row; and on random rows.
func TestQuantizeRowsIntoMatchesBranchy(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	r := rand.New(rand.NewSource(41))
	for _, qmax := range []int32{QMaxGemm, 127} {
		q := float32(qmax)
		edges := []float32{q, -q, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, q - 0.5, 0.5 - q,
			q - 1.5, 1.5 - q, 0, negZero, 0.49999997, -0.49999997, 1, -1}
		rows := [][]float32{edges, make([]float32, 7), {negZero, negZero, negZero}}
		for i := 0; i < 20; i++ {
			row := make([]float32, 1+r.Intn(40))
			for j := range row {
				row[j] = float32(r.NormFloat64()) * float32(math.Pow(10, float64(r.Intn(7)-3)))
			}
			rows = append(rows, row)
		}
		for i, row := range rows {
			got, want := make([]int8, len(row)), make([]int8, len(row))
			gs, ws := make([]float32, 1), make([]float32, 1)
			QuantizeRowsInto(got, gs, row, 1, len(row), qmax)
			quantizeRowsBranchy(want, ws, row, 1, len(row), qmax)
			if math.Float32bits(gs[0]) != math.Float32bits(ws[0]) {
				t.Fatalf("qmax %d row %d: scale %v, branching loop %v", qmax, i, gs[0], ws[0])
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("qmax %d row %d: w %v quantizes to %d, branching loop %d", qmax, i, row[j], got[j], want[j])
				}
			}
		}
	}
}

// maxDequantError returns, per row, max |w - data*scale|: how far the
// weights QuantizeRowsInto stored sit from the ones they stand for.
func maxDequantError(w []float32, data []int8, scales []float32, rows, per int) []float64 {
	errs := make([]float64, rows)
	for r := 0; r < rows; r++ {
		for i := r * per; i < (r+1)*per; i++ {
			errs[r] = max(errs[r], math.Abs(float64(w[i])-float64(data[i])*float64(scales[r])))
		}
	}
	return errs
}

// TestQuantizeRoundTripBounded holds every row to round-to-nearest: no
// weight moves by more than half its row's scale, at the GEMM tier's bound
// and at the full int8 range.
func TestQuantizeRoundTripBounded(t *testing.T) {
	f := func(seed int64, rb uint8) bool {
		const per = 16
		rows := int(rb%8) + 1
		r := rand.New(rand.NewSource(seed))
		w := make([]float32, rows*per)
		for i := range w {
			w[i] = float32(r.NormFloat64()) * 0.2
		}
		for _, qmax := range []int32{QMaxGemm, 127} {
			data, scales := make([]int8, len(w)), make([]float32, rows)
			QuantizeRowsInto(data, scales, w, rows, per, qmax)
			for row, e := range maxDequantError(w, data, scales, rows, per) {
				if e > float64(scales[row])/2*1.0001 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantizeExactValues: a row whose largest magnitude is qmax gets
// scale 1, so its integer weights survive exactly.
func TestQuantizeExactValues(t *testing.T) {
	for _, qmax := range []int32{QMaxGemm, 127} {
		q := float32(qmax)
		w := []float32{q, -q, 32, 0, -5}
		data, scales := make([]int8, len(w)), make([]float32, 1)
		QuantizeRowsInto(data, scales, w, 1, len(w), qmax)
		if scales[0] != 1 {
			t.Fatalf("qmax %d: scale = %v, want 1", qmax, scales[0])
		}
		if e := maxDequantError(w, data, scales, 1, len(w))[0]; e != 0 {
			t.Fatalf("qmax %d: integer weights moved by %g", qmax, e)
		}
	}
}

// TestQuantizeZeroChannel: all-zero rows get scale 1 and round-trip to
// zero.
func TestQuantizeZeroChannel(t *testing.T) {
	const rows, per = 2, 3
	w := make([]float32, rows*per)
	data, scales := make([]int8, len(w)), make([]float32, rows)
	QuantizeRowsInto(data, scales, w, rows, per, QMaxGemm)
	for r, s := range scales {
		if s != 1 {
			t.Fatalf("row %d: scale = %v, want 1", r, s)
		}
	}
	if e := maxDequantError(w, data, scales, rows, per); e[0] != 0 || e[1] != 0 {
		t.Fatalf("zero rows moved by %v", e)
	}
}
