package ops

import (
	"bytes"
	"fmt"
	"testing"

	"orpheus/internal/gemm"
	"orpheus/internal/tensor"
)

// Byte-exact tests for the int8 pack walks. The packed panel feeds exact
// int32 arithmetic, so the word walk is pinned to a scalar byte-at-a-time
// walk — kept here as the oracle — on every byte of the destination,
// padding included.

// scalarConvPack8 is the oracle for convPackSrc8: one byte per iteration at
// stride 4, read from an unpadded uint8 copy of the input with padding
// decided per run, in the channel-quad K order (k' = ((cq·kh + ky)·kw +
// kx)·4 + t for channel 4cq+t), and the zero point for the channels that
// pad a group to whole quads. q8 uses the fp32 tensor's NCHW indexing;
// zeros holds the per-image zero points. Its geometry is the conv's own
// parameters, not the word planes the walk under test reads.
type scalarConvPack8 struct {
	geo   convParams
	group int
	q8    []byte
	zeros []int32
}

func (s *scalarConvPack8) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	g := &s.geo
	khw := g.kh * g.kw
	cg := g.cin / g.groups
	zb := byte(s.zeros[img])
	kcq4 := (kc + 3) &^ 3
	for j := 0; j < nc; j++ {
		oy, ox := (jj+j)/g.ow, (jj+j)%g.ow
		for p := 0; p < kcq4; p++ {
			at := (j/nr)*nr*kcq4 + (p/4)*nr*4 + (j%nr)*4 + p%4
			if p >= kc {
				dst[at] = 0 // the contract's rows beyond kc
				continue
			}
			kq := (pp + p) / 4
			c := kq/khw*4 + (pp+p)%4
			ky, kx := kq%khw/g.kw, kq%khw%g.kw
			iy, ix := oy*g.sh+ky*g.dh-g.padT, ox*g.sw+kx*g.dw-g.padL
			dst[at] = zb
			if c < cg && iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
				dst[at] = s.q8[(((img*g.cin+s.group*cg+c)*g.h)+iy)*g.w+ix]
			}
		}
	}
	// Columns beyond nc are geometric padding (their products are
	// discarded), zeroed per the PackSrc8 contract.
	for j := nc; j < (nc+nr-1)/nr*nr; j++ {
		for p := 0; p < kcq4; p++ {
			dst[(j/nr)*nr*kcq4+(p/4)*nr*4+(j%nr)*4+p%4] = 0
		}
	}
}

// resnetPackCases are the pack geometries resnet-18 runs that convMatrix
// lacks: the 7×7 stride-2 stem (cin 3, padded to one quad), the 1×1
// stride-2 downsample (cin 6: a quad and a half), a 3×3 whose output row
// (7) is shorter than every nr (cin 5), plus a strided dilated grouped
// batch to cross the remaining features and two groups of 3 channels.
var resnetPackCases = []convCase{
	{name: "stem-7x7-s2", n: 1, cin: 3, h: 30, w: 30, cout: 4, kh: 7, kw: 7, sh: 2, sw: 2, padT: 3, padL: 3, padB: 3, padR: 3, dh: 1, dw: 1, groups: 1},
	{name: "down-1x1-s2", n: 1, cin: 6, h: 14, w: 14, cout: 4, kh: 1, kw: 1, sh: 2, sw: 2, dh: 1, dw: 1, groups: 1},
	{name: "3x3-ow7", n: 1, cin: 5, h: 7, w: 7, cout: 4, kh: 3, kw: 3, sh: 1, sw: 1, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 1},
	{name: "dil2-g2-b3-s2", n: 3, cin: 4, h: 11, w: 13, cout: 4, kh: 3, kw: 3, sh: 2, sw: 1, padT: 2, padL: 2, padB: 2, padR: 2, dh: 2, dw: 2, groups: 2},
	{name: "g2-cg3-s2", n: 2, cin: 6, h: 9, w: 10, cout: 4, kh: 3, kw: 3, sh: 2, sw: 2, padT: 1, padL: 1, padB: 1, padR: 1, dh: 1, dw: 1, groups: 2},
}

// packPair builds the word-plane source and the scalar oracle over the
// same quantized input for group g of tc.
func packPair(t testing.TB, tc convCase, seed uint64, g int) (*convPackSrc8, *scalarConvPack8, convParams) {
	t.Helper()
	inputs := tc.tensors(seed)
	p, err := resolveConv(buildNode(t, "Conv", tc.attrs(), inputs...))
	if err != nil {
		t.Fatal(err)
	}
	x := inputs[0].Data()
	src := &convPackSrc8{}
	src.quantize(x, &p)
	src.chan0 = g * src.cin / p.groups

	ref := &scalarConvPack8{geo: p, group: g, q8: make([]byte, len(x)), zeros: src.zeros}
	stride := p.cin * p.h * p.w
	for img := 0; img < p.n; img++ {
		gemm.QuantizeU8(ref.q8[img*stride:], x[img*stride:(img+1)*stride],
			1/src.scales[img], float32(src.zeros[img])+0.5)
	}
	return src, ref, p
}

// comparePanel packs one panel both ways into poisoned buffers and
// requires every contract byte to match.
func comparePanel(t testing.TB, src, ref gemm.PackSrc8, img, pp, jj, kc, nc, nr int) {
	t.Helper()
	size := (nc + nr - 1) / nr * nr * ((kc + 3) &^ 3)
	got := bytes.Repeat([]byte{0xA5}, size)
	want := bytes.Repeat([]byte{0x5A}, size)
	src.PackPanel8(got, img, pp, jj, kc, nc, nr)
	ref.PackPanel8(want, img, pp, jj, kc, nc, nr)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("img %d pp %d jj %d kc %d nc %d nr %d: byte %d = %d, scalar walk has %d",
			img, pp, jj, kc, nc, nr, i, got[i], want[i])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestPackPanel8MatchesScalar sweeps every geometry, group, image and
// registered int8 strip width over whole-matrix panels and over interior
// panels whose column offsets and extents are multiples of nothing (k
// offsets and extents are whole quads, as in every quadK-deep call).
func TestPackPanel8MatchesScalar(t *testing.T) {
	cases := append(append(append([]convCase{}, convMatrix...), resnetPackCases...), pointwiseCases...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for g := 0; g < tc.groups; g++ {
				src, ref, p := packPair(t, tc, tensor.SeedFromString(tc.name), g)
				kq := quadK(&p)
				cols := p.oh * p.ow
				for _, nr := range []int{8, 16} {
					for img := 0; img < p.n; img++ {
						comparePanel(t, src, ref, img, 0, 0, min(kq, gemm.MaxPanelK), cols, nr)
						for _, off := range [][2]int{{1, 1}, {3, 5}, {4, 7}, {6, 17}, {kq / 2, cols / 2}} {
							pp, jj := min(off[0], kq-1)&^3, min(off[1], cols-1)
							for _, ext := range [][2]int{{1, 1}, {5, 9}, {kq, cols}} {
								kc := min((ext[0]+3)&^3, kq-pp, gemm.MaxPanelK)
								nc := min(ext[1], cols-jj)
								comparePanel(t, src, ref, img, pp, jj, kc, nc, nr)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzPackPanel8VsScalar draws a geometry and a panel from the fuzz input
// and holds the word walk to the scalar one. The seeds cross group channel
// counts of 1 to 6 — quads padded by 3, 2, 1 and 0 channels.
func FuzzPackPanel8VsScalar(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(8), uint8(8), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(255), false)
	f.Add(uint64(2), uint8(3), uint8(30), uint8(30), uint8(7), uint8(2), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint8(255), uint8(255), true)
	f.Add(uint64(3), uint8(4), uint8(11), uint8(13), uint8(3), uint8(2), uint8(2), uint8(2), uint8(2), uint8(5), uint8(9), uint8(6), uint8(10), false)
	f.Add(uint64(4), uint8(6), uint8(14), uint8(14), uint8(1), uint8(2), uint8(0), uint8(1), uint8(1), uint8(2), uint8(3), uint8(4), uint8(40), true)
	f.Add(uint64(5), uint8(2), uint8(12), uint8(9), uint8(3), uint8(1), uint8(1), uint8(1), uint8(2), uint8(8), uint8(3), uint8(20), uint8(30), false)
	f.Add(uint64(6), uint8(4), uint8(7), uint8(7), uint8(3), uint8(0), uint8(1), uint8(0), uint8(0), uint8(12), uint8(1), uint8(8), uint8(48), true)
	f.Add(uint64(7), uint8(5), uint8(10), uint8(11), uint8(9), uint8(4), uint8(5), uint8(0), uint8(1), uint8(4), uint8(2), uint8(12), uint8(9), false)
	// Pointwise: 7×7 whole, 14×14 grouped from mid-row, and a 1×1 stride
	// 2, which keeps its rows.
	f.Add(uint64(1), uint8(5), uint8(6), uint8(6), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(255), true)
	f.Add(uint64(3), uint8(2), uint8(13), uint8(13), uint8(0), uint8(0), uint8(0), uint8(4), uint8(1), uint8(0), uint8(9), uint8(255), uint8(100), false)
	f.Add(uint64(4), uint8(3), uint8(19), uint8(19), uint8(0), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint8(5), uint8(255), uint8(60), true)
	f.Fuzz(func(t *testing.T, seed uint64, cin, h, w, k, stride, pad, dil, groups, ppb, jjb, kcb, ncb uint8, wide bool) {
		tc := convCase{name: "fuzz", n: 1 + int(seed%2), cin: int(cin%8) + 1, h: int(h%20) + 1, w: int(w%20) + 1,
			kh: int(k%7) + 1, kw: int(k/7%7) + 1, sh: int(stride%3) + 1, sw: int(stride/3%3) + 1,
			padT: int(pad % 4), padL: int(pad / 4 % 4), padB: int(pad / 16 % 4), padR: int(pad / 64),
			dh: int(dil%3) + 1, dw: int(dil/3%3) + 1, groups: int(groups%3) + 1}
		tc.cin *= tc.groups
		tc.cout = tc.groups
		if (tc.kh-1)*tc.dh >= tc.h+tc.padT+tc.padB || (tc.kw-1)*tc.dw >= tc.w+tc.padL+tc.padR {
			t.Skip("kernel larger than padded input")
		}
		nr := 8
		if wide {
			nr = 16
		}
		g := int(seed/2) % tc.groups
		src, ref, p := packPair(t, tc, seed, g)
		kq := quadK(&p)
		cols := p.oh * p.ow
		pp, jj := int(ppb)%kq&^3, int(jjb)%cols
		kc := min(int(kcb)&^3+4, kq-pp, gemm.MaxPanelK)
		nc := min(int(ncb)+1, cols-jj)
		comparePanel(t, src, ref, p.n-1, pp, jj, kc, nc, nr)
	})
}

// TestDensePackPanel8Layout pins the dense source to the PackSrc8 layout
// formula element by element, k tails and edge strips included.
func TestDensePackPanel8Layout(t *testing.T) {
	for _, tc := range []struct{ samples, k int }{{1, 4}, {1, 33}, {3, 100}, {20, 7}, {17, 300}} {
		t.Run(fmt.Sprintf("n%d_k%d", tc.samples, tc.k), func(t *testing.T) {
			x := tensor.Rand(tensor.NewRNG(uint64(tc.k)), -2, 2, tc.samples, tc.k).Data()
			src := &densePackSrc8{}
			src.init(x, tc.samples, tc.k)
			for _, nr := range []int{8, 16} {
				for pp := 0; pp < tc.k; pp += gemm.MaxPanelK {
					kc := min(gemm.MaxPanelK, tc.k-pp)
					kcq4 := (kc + 3) &^ 3
					for _, jj := range []int{0, tc.samples / 2} {
						nc := tc.samples - jj
						size := (nc + nr - 1) / nr * nr * kcq4
						got := bytes.Repeat([]byte{0xA5}, size)
						src.PackPanel8(got, 0, pp, jj, kc, nc, nr)
						want := make([]byte, size)
						for j := 0; j < nc; j++ {
							q := make([]byte, kc)
							gemm.QuantizeU8(q, x[(jj+j)*tc.k+pp:(jj+j)*tc.k+pp+kc], 1/src.scales[jj+j], float32(src.zeros[jj+j])+0.5)
							for p := 0; p < kc; p++ {
								want[(j/nr)*nr*kcq4+(p/4)*nr*4+(j%nr)*4+p%4] = q[p]
							}
						}
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("nr %d pp %d jj %d: byte %d = %d, layout formula gives %d", nr, pp, jj, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}
