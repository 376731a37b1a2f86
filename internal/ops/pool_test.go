package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orpheus/internal/graph"
	"orpheus/internal/tensor"
)

func TestMaxPoolKnownValues(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out := runKernel(t, "maxpool.direct", "MaxPool",
		graph.Attrs{"kernel": []int{2, 2}, "strides": []int{2, 2}}, x)
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMaxPoolWithPadding(t *testing.T) {
	// 3x3 window, pad 1, stride 2 on 4x4: padded cells never win because
	// they are skipped, not treated as zero (matters for negative inputs).
	x := tensor.Full(-5, 1, 1, 4, 4)
	out := runKernel(t, "maxpool.direct", "MaxPool",
		graph.Attrs{"kernel": []int{3, 3}, "strides": []int{2, 2}, "pads": []int{1, 1, 1, 1}}, x)
	for _, v := range out.Data() {
		if v != -5 {
			t.Fatalf("padding leaked into max: %v", out.Data())
		}
	}
}

func TestAvgPoolExcludePad(t *testing.T) {
	x := tensor.Full(4, 1, 1, 2, 2)
	// 2x2 window, stride 1, pad 1 -> 3x3 out. Corner windows see one real
	// element; with count_include_pad=false the average is still 4.
	out := runKernel(t, "avgpool.direct", "AveragePool",
		graph.Attrs{"kernel": []int{2, 2}, "strides": []int{1, 1}, "pads": []int{1, 1, 1, 1}}, x)
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("exclude-pad corner = %v, want 4", out.At(0, 0, 0, 0))
	}
	// With count_include_pad=true the corner divides by 4: 4/4 = 1.
	out = runKernel(t, "avgpool.direct", "AveragePool",
		graph.Attrs{"kernel": []int{2, 2}, "strides": []int{1, 1}, "pads": []int{1, 1, 1, 1},
			"count_include_pad": true}, x)
	if out.At(0, 0, 0, 0) != 1 {
		t.Fatalf("include-pad corner = %v, want 1", out.At(0, 0, 0, 0))
	}
}

func TestAvgPoolMatchesManual(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := runKernel(t, "avgpool.direct", "AveragePool",
		graph.Attrs{"kernel": []int{2, 2}}, x)
	if !tensor.ShapeEq(out.Shape(), []int{1, 1, 1, 1}) || out.At(0, 0, 0, 0) != 2.5 {
		t.Fatalf("avg = %v", out.Data())
	}
}

func TestGlobalAvgPool(t *testing.T) {
	r := tensor.NewRNG(3)
	x := tensor.Rand(r, -1, 1, 2, 3, 5, 7)
	out := runKernel(t, "globalavgpool.direct", "GlobalAveragePool", nil, x)
	if !tensor.ShapeEq(out.Shape(), []int{2, 3, 1, 1}) {
		t.Fatalf("shape = %v", out.Shape())
	}
	// Channel (1,2) mean computed independently.
	var sum float32
	for y := 0; y < 5; y++ {
		for z := 0; z < 7; z++ {
			sum += x.At(1, 2, y, z)
		}
	}
	want := sum / 35
	if d := out.At(1, 2, 0, 0) - want; d > 1e-5 || d < -1e-5 {
		t.Fatalf("global avg = %v, want %v", out.At(1, 2, 0, 0), want)
	}
}

func TestPoolShapeInference(t *testing.T) {
	x := tensor.New(1, 8, 224, 224)
	n := buildNode(t, "MaxPool", graph.Attrs{"kernel": []int{3, 3}, "strides": []int{2, 2}, "pads": []int{1, 1, 1, 1}}, x)
	if !tensor.ShapeEq(n.Outputs[0].Shape, []int{1, 8, 112, 112}) {
		t.Fatalf("inferred %v", n.Outputs[0].Shape)
	}
}

func TestPoolShapeErrors(t *testing.T) {
	g := graph.New("bad")
	x, _ := g.Input("x", []int{1, 1, 4, 4})
	y, _ := g.Add("MaxPool", "p", graph.Attrs{"kernel": []int{9, 9}}, x)
	_ = g.MarkOutput(y)
	if err := g.Finalize(); err == nil {
		t.Fatal("oversized pool window not caught")
	}
	g2 := graph.New("bad2")
	x2, _ := g2.Input("x", []int{1, 1, 4, 4})
	y2, _ := g2.Add("AveragePool", "p", graph.Attrs{}, x2) // kernel missing
	_ = g2.MarkOutput(y2)
	if err := g2.Finalize(); err == nil {
		t.Fatal("missing kernel attr not caught")
	}
}

// scalarMaxPool and scalarAvgPool are the pooling kernels as scalar walks
// — one bounds-tested window per output pixel, a C-vector per pixel in
// NHWC — kept as the oracle the pools are held to bit for bit.
func scalarMaxPool(p poolParams, x, y []float32) {
	if p.layout == "nhwc" {
		// Channel-innermost: one output pixel is a C-vector, reduced
		// vector-wise over the window taps.
		for b := 0; b < p.n; b++ {
			for oy := 0; oy < p.oh; oy++ {
				for ox := 0; ox < p.ow; ox++ {
					base := ((b*p.oh+oy)*p.ow + ox) * p.c
					dst := y[base : base+p.c]
					for i := range dst {
						dst[i] = float32(math.Inf(-1))
					}
					for ky := 0; ky < p.kh; ky++ {
						iy := oy*p.sh - p.padT + ky
						if iy < 0 || iy >= p.h {
							continue
						}
						for kx := 0; kx < p.kw; kx++ {
							ix := ox*p.sw - p.padL + kx
							if ix < 0 || ix >= p.w {
								continue
							}
							src := x[((b*p.h+iy)*p.w+ix)*p.c:][:p.c]
							for i, v := range src {
								if v > dst[i] {
									dst[i] = v
								}
							}
						}
					}
				}
			}
		}
		return
	}
	for b := 0; b < p.n; b++ {
		for c := 0; c < p.c; c++ {
			src := x[(b*p.c+c)*p.h*p.w:]
			dst := y[(b*p.c+c)*p.oh*p.ow:]
			for oy := 0; oy < p.oh; oy++ {
				for ox := 0; ox < p.ow; ox++ {
					best := float32(math.Inf(-1))
					for ky := 0; ky < p.kh; ky++ {
						iy := oy*p.sh - p.padT + ky
						if iy < 0 || iy >= p.h {
							continue
						}
						for kx := 0; kx < p.kw; kx++ {
							ix := ox*p.sw - p.padL + kx
							if ix < 0 || ix >= p.w {
								continue
							}
							if v := src[iy*p.w+ix]; v > best {
								best = v
							}
						}
					}
					dst[oy*p.ow+ox] = best
				}
			}
		}
	}
}

func scalarAvgPool(p poolParams, x, y []float32) {
	if p.layout == "nhwc" {
		for b := 0; b < p.n; b++ {
			for oy := 0; oy < p.oh; oy++ {
				for ox := 0; ox < p.ow; ox++ {
					base := ((b*p.oh+oy)*p.ow + ox) * p.c
					dst := y[base : base+p.c]
					for i := range dst {
						dst[i] = 0
					}
					count := 0
					for ky := 0; ky < p.kh; ky++ {
						iy := oy*p.sh - p.padT + ky
						if iy < 0 || iy >= p.h {
							continue
						}
						for kx := 0; kx < p.kw; kx++ {
							ix := ox*p.sw - p.padL + kx
							if ix < 0 || ix >= p.w {
								continue
							}
							src := x[((b*p.h+iy)*p.w+ix)*p.c:][:p.c]
							for i, v := range src {
								dst[i] += v
							}
							count++
						}
					}
					if p.includePad {
						count = p.kh * p.kw
					}
					if count > 0 {
						inv := 1 / float32(count)
						for i := range dst {
							dst[i] *= inv
						}
					}
				}
			}
		}
		return
	}
	for b := 0; b < p.n; b++ {
		for c := 0; c < p.c; c++ {
			src := x[(b*p.c+c)*p.h*p.w:]
			dst := y[(b*p.c+c)*p.oh*p.ow:]
			for oy := 0; oy < p.oh; oy++ {
				for ox := 0; ox < p.ow; ox++ {
					var sum float32
					count := 0
					for ky := 0; ky < p.kh; ky++ {
						iy := oy*p.sh - p.padT + ky
						if iy < 0 || iy >= p.h {
							continue
						}
						for kx := 0; kx < p.kw; kx++ {
							ix := ox*p.sw - p.padL + kx
							if ix < 0 || ix >= p.w {
								continue
							}
							sum += src[iy*p.w+ix]
							count++
						}
					}
					if p.includePad {
						count = p.kh * p.kw
					}
					if count == 0 {
						dst[oy*p.ow+ox] = 0
					} else {
						dst[oy*p.ow+ox] = sum / float32(count)
					}
				}
			}
		}
	}
}

// poolCase is one pooling geometry; the checks run it as MaxPool and as
// AveragePool with count_include_pad both ways, in both layouts.
type poolCase struct {
	n, c, h, w             int
	kh, kw, sh, sw         int
	padT, padL, padB, padR int
}

func (c poolCase) String() string {
	return fmt.Sprintf("%dx%dx%dx%d k%dx%d s%dx%d p%d,%d,%d,%d",
		c.n, c.c, c.h, c.w, c.kh, c.kw, c.sh, c.sw, c.padT, c.padL, c.padB, c.padR)
}

// checkPoolVsScalar runs maxpool.direct and avgpool.direct on the case and
// requires every output to carry the scalar walk's bits. A quarter of the
// inputs are NaN, +0, −0 or −Inf, so that the max rule — keep the held
// value unless the tap's is greater — shows in the bits: a NaN tap is
// skipped, the first of two equal zeros is kept.
func checkPoolVsScalar(t *testing.T, c poolCase, seed uint64) {
	t.Helper()
	special := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(-1))}
	for _, layout := range []string{"", "nhwc"} {
		shape := []int{c.n, c.c, c.h, c.w}
		if layout == "nhwc" {
			shape = []int{c.n, c.h, c.w, c.c}
		}
		x := tensor.Rand(tensor.NewRNG(seed), -1, 1, shape...)
		r := rand.New(rand.NewSource(int64(seed)))
		for i := range x.Data() {
			if k := r.Intn(16); k < len(special) {
				x.Data()[i] = special[k]
			}
		}
		for _, v := range []struct {
			kernel, op string
			pad        bool
			oracle     func(poolParams, []float32, []float32)
		}{
			{"maxpool.direct", "MaxPool", false, scalarMaxPool},
			{"avgpool.direct", "AveragePool", false, scalarAvgPool},
			{"avgpool.direct", "AveragePool", true, scalarAvgPool},
		} {
			attrs := graph.Attrs{"kernel": []int{c.kh, c.kw}, "strides": []int{c.sh, c.sw},
				"pads": []int{c.padT, c.padL, c.padB, c.padR}, "count_include_pad": v.pad}
			if layout != "" {
				attrs["layout"] = layout
			}
			got := runKernel(t, v.kernel, v.op, attrs, x)
			p, err := resolvePoolRT(buildNode(t, v.op, attrs, x), []*tensor.Tensor{x})
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float32, len(got.Data()))
			v.oracle(p, x.Data(), want)
			for i, g := range got.Data() {
				if math.Float32bits(g) != math.Float32bits(want[i]) {
					t.Fatalf("%v layout %q %s include_pad %v: out[%d] = %v, scalar walk %v",
						c, layout, v.op, v.pad, i, g, want[i])
				}
			}
		}
	}
}

// TestPoolVsScalar holds the pools to the scalar walks exactly over the
// geometries that exercise each part of them: strides 1 to 3 (the two
// vector bodies and the portable one), asymmetric pads, output rows
// narrower than a vector or than a column of the DepthwiseRow bodies,
// windows that lie wholly in padding, tall planes, batches, and channel
// counts on both sides of a vector in NHWC.
func TestPoolVsScalar(t *testing.T) {
	for i, c := range []poolCase{
		{n: 1, c: 3, h: 8, w: 8, kh: 2, kw: 2, sh: 2, sw: 2},
		{n: 1, c: 64, h: 20, w: 20, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1},
		{n: 2, c: 5, h: 9, w: 33, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1},
		{n: 1, c: 4, h: 17, w: 19, kh: 3, kw: 3, sh: 3, sw: 3, padT: 1, padL: 0, padB: 2, padR: 1},
		{n: 1, c: 2, h: 7, w: 5, kh: 3, kw: 2, sh: 1, sw: 2, padT: 0, padL: 1, padB: 1, padR: 0},
		{n: 3, c: 9, h: 6, w: 6, kh: 2, kw: 2, sh: 2, sw: 2, padT: 2, padL: 2, padB: 2, padR: 2}, // border windows wholly in padding
		{n: 1, c: 1, h: 3, w: 3, kh: 3, kw: 3, sh: 2, sw: 2, padT: 3, padL: 3, padB: 3, padR: 3},
		{n: 1, c: 2, h: 112, w: 112, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1}, // resnet-18's stem pool
		{n: 2, c: 3, h: 70, w: 41, kh: 5, kw: 4, sh: 2, sw: 1, padT: 2, padL: 1, padB: 1, padR: 2},
		{n: 1, c: 17, h: 4, w: 4, kh: 4, kw: 4, sh: 1, sw: 1},
	} {
		checkPoolVsScalar(t, c, uint64(100+i))
	}
}

// FuzzPoolVsScalar holds the pools to the scalar walks exactly over
// arbitrary geometries.
func FuzzPoolVsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(14), uint8(14), uint8(2), uint8(2), uint8(1), uint8(1), uint16(0x1111), uint8(0))
	f.Add(uint64(2), uint8(9), uint8(33), uint8(4), uint8(1), uint8(2), uint8(2), uint16(0x2012), uint8(7))
	f.Add(uint64(3), uint8(4), uint8(3), uint8(2), uint8(2), uint8(0), uint8(2), uint16(0x4343), uint8(13))
	f.Fuzz(func(t *testing.T, seed uint64, h, w, kh, kw, sh, sw uint8, pads uint16, mix uint8) {
		c := poolCase{
			n: 1 + int(mix)%2, c: 1 + int(mix>>1)%11,
			h: 1 + int(h)%40, w: 1 + int(w)%40,
			kh: 1 + int(kh)%5, kw: 1 + int(kw)%5,
			sh: 1 + int(sh)%3, sw: 1 + int(sw)%3,
			padT: int(pads) % 6, padL: int(pads>>4) % 6, padB: int(pads>>8) % 6, padR: int(pads>>12) % 6,
		}
		if c.h+c.padT+c.padB < c.kh || c.w+c.padL+c.padR < c.kw {
			t.Skip("window exceeds padded input")
		}
		checkPoolVsScalar(t, c, seed)
	})
}
