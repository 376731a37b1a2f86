package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Finishing bodies. Every body of a finishing kernel — the tile, the
// column edge and the row edge — must give each element it covers the
// kernel's padded tile's sum, finished by finishRef, bit for bit, and
// write nothing else; and a call run in place must give every bit the
// unit-accumulator walk and Call.store give it.

// addFirst is x + y with the SIMD rule for NaN operands: the first NaN
// operand's payload, quieted, is the result.
func addFirst(x, y float32) float32 {
	const quiet = 1 << 22
	switch {
	case x != x:
		return math.Float32frombits(math.Float32bits(x) | quiet)
	case y != y:
		return math.Float32frombits(math.Float32bits(y) | quiet)
	}
	return x + y
}

// finishRef is epi's definition with the operand order of every add
// spelled out, which the assembly bodies keep.
func finishRef(x float32, e *epi, r, j int) float32 {
	switch {
	case e.col != nil:
		x = addFirst(addFirst(0, e.col[j]), x)
	case e.relu && e.row != nil:
		x = addFirst(e.row[r], x)
	case e.row != nil:
		b := e.row[r]
		if b == 0 {
			b = negZero
		}
		x = addFirst(x, b)
	case e.relu:
		x = addFirst(0, x)
	}
	if e.relu && x < 0 {
		x = 0
	}
	return x
}

// finishKernels returns the fp32 kernels selectable here that finish
// their output.
func finishKernels() []*kernel[float32, float32, float32] {
	var ks []*kernel[float32, float32, float32]
	for _, k := range fp32Kernels.kernels {
		if k.row != nil {
			ks = append(ks, k)
		}
	}
	return ks
}

// Body kinds a finishCase calls.
const (
	bodyTile = iota
	bodyEdge
	bodyRow
)

// Epilogue kinds a finishCase applies.
const (
	epiNone = iota
	epiRow
	epiCol
	epiZeroRows // a ReLU without a bias
	epiKinds
)

// finishCase is one body call: the tile (one strip of each operand), the
// column edge (strips A strips against the first cols columns of a B
// strip) or the row edge (the first rows rows of an A strip against the B
// strips up to column cols), of kd k-groups, into a block of row stride
// ldc, finished by an epilogue of kind epiKind.
type finishCase struct {
	body, strips, cols, kd, ldc int
	store                       bool
	epiKind                     int
	relu                        bool
}

func (c finishCase) String() string {
	return fmt.Sprintf("body%d_strips%d_cols%d_kd%d_ldc%d_store%v_epi%d_relu%v",
		c.body, c.strips, c.cols, c.kd, c.ldc, c.store, c.epiKind, c.relu)
}

// geometry returns the A strips, the B strips and the rows and columns
// of the block c covers under kern.
func (c finishCase) geometry(kern *kernel[float32, float32, float32]) (aStrips, bStrips, rows, cols int) {
	switch c.body {
	case bodyTile:
		return 1, 1, kern.mr, kern.nr
	case bodyEdge:
		return c.strips, 1, c.strips * kern.mr, c.cols
	}
	return 1, ceilDiv(c.cols, kern.nr), c.strips, c.cols
}

// epi returns c's epilogue over biases bias (row or column, by kind).
func (c finishCase) epi(bias []float32) epi {
	e := epi{relu: c.relu}
	switch c.epiKind {
	case epiRow:
		e.row = bias
	case epiCol:
		e.col = bias
	case epiZeroRows:
		e.relu = true
	}
	return e
}

// checkFinish runs c's body of kern on pa, pb and a block buffer
// initialised from cInit, and kern's padded tile with the zero epi strip
// by strip on the same operands, into a padded copy of the block that
// finishRef then finishes. It compares every cell of the body's rows and
// columns bit for bit (see sameEdgeBits) and every other cell against
// cInit.
func checkFinish(t testing.TB, kern *kernel[float32, float32, float32], c finishCase, pa, pb, cInit, bias []float32) {
	t.Helper()
	mr, nr := kern.mr, kern.nr
	aStrips, bStrips, rows, cols := c.geometry(kern)
	size := edgeGuard + rows*c.ldc + edgeGuard
	got := append([]float32(nil), cInit[:size]...)
	pa, pb = pa[:aStrips*c.kd*mr], pb[:bStrips*c.kd*nr]
	e := c.epi(bias)
	out := got[edgeGuard:]
	switch c.body {
	case bodyTile:
		kern.micro(pa, pb, out, c.kd, c.ldc, c.store, &e, 0, 0)
	case bodyEdge:
		kern.edge(pa, pb, out, c.kd, c.ldc, c.strips, c.cols, c.store, &e, 0, 0)
	default:
		kern.row(pa, pb, out, c.kd, c.ldc, c.strips, c.cols, c.store, &e, 0, 0)
	}

	pw := bStrips * nr // the padded block: whole tiles
	pad := make([]float32, aStrips*mr*pw)
	for r := 0; r < rows; r++ {
		copy(pad[r*pw:r*pw+cols], cInit[edgeGuard+r*c.ldc:])
	}
	for s := 0; s < aStrips; s++ {
		for q := 0; q < bStrips; q++ {
			kern.micro(pa[s*c.kd*mr:], pb[q*c.kd*nr:], pad[s*mr*pw+q*nr:], c.kd, pw, c.store, nil, 0, 0)
		}
	}
	for i := range got {
		r, col := (i-edgeGuard)/c.ldc, (i-edgeGuard)%c.ldc
		in := i >= edgeGuard && r < rows && col < cols
		ref := cInit[i]
		if in {
			ref = finishRef(pad[r*pw+col], &e, r, col)
		}
		if !sameEdgeBits(kern, got[i], ref) {
			where := "guard cell"
			if in {
				where = "block cell"
			}
			t.Fatalf("%s %v: %s %d (row %d col %d) = %#08x, want %#08x",
				kern.name, c, where, i, r, col, math.Float32bits(got[i]), math.Float32bits(ref))
		}
	}
}

// finishOperands returns operand buffers for any finishCase of kern up to
// kd k-groups and width nc, seeded with edgeSpecials at rate special;
// the bias mixes signed zeros in, which the +0 → −0 rule tells apart.
func finishOperands(r *rand.Rand, kern *kernel[float32, float32, float32], kd, nc, ldc int, special float64) (pa, pb, cInit, bias []float32) {
	maxStrips := kern.mc / kern.mr
	pa = make([]float32, maxStrips*kd*kern.mr)
	pb = make([]float32, ceilDiv(nc, kern.nr)*kd*kern.nr)
	cInit = make([]float32, 2*edgeGuard+kern.mc*ldc)
	bias = make([]float32, max(kern.mc, nc))
	edgeFill(r, pa, special)
	edgeFill(r, pb, special)
	edgeFill(r, cInit, special)
	edgeFill(r, bias, max(special, 0.25))
	return pa, pb, cInit, bias
}

// TestFinishMatchesPaddedTile holds every finishing body to its kernel's
// padded tile and finishRef: the tile, the column edge over every width
// and strip count of an M-tile, and the row edge over every height and
// every width up to a strip and one past it, at one k-group, a full panel
// and past it, in both modes, under every epilogue — none, a row bias, a
// column bias, a ReLU alone — with and without ReLU, operands,
// accumulators and biases seeded with signed zeros, infinities, NaNs (one
// signalling) and underflowing products. A second pass makes every chain
// −0 (each product underflows to −0), the sum on which a +0 row bias
// (every third one there) and its −0 stand-in differ. On an AVX-512 host
// the AVX2 bodies run here too.
func TestFinishMatchesPaddedTile(t *testing.T) {
	for _, kern := range finishKernels() {
		t.Run(kern.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(53))
			const maxKd = kcBlock + 1
			nc := 3*kern.nr + 5
			ldc := nc + 3
			pa, pb, cInit, bias := finishOperands(r, kern, maxKd, nc, ldc, 0.3)
			finishBattery(t, kern, []int{1, 7, kcBlock, maxKd}, nc, ldc, pa, pb, cInit, bias)
			for i := range pa {
				pa[i] = -1e-25
			}
			for i := range pb {
				pb[i] = 1e-25
			}
			for i := 0; i < len(bias); i += 3 {
				bias[i] = 0
			}
			finishBattery(t, kern, []int{1, maxKd}, nc, ldc, pa, pb, cInit, bias)
		})
	}
}

// finishBattery checks every body of kern at each depth of kds, both
// modes and every epilogue, over widths up to nc.
func finishBattery(t *testing.T, kern *kernel[float32, float32, float32], kds []int, nc, ldc int, pa, pb, cInit, bias []float32) {
	for _, kd := range kds {
		for _, store := range []bool{true, false} {
			for ek := 0; ek < epiKinds; ek++ {
				for _, relu := range []bool{false, true} {
					c := finishCase{kd: kd, ldc: ldc, store: store, epiKind: ek, relu: relu}
					c.body = bodyTile
					checkFinish(t, kern, c, pa, pb, cInit, bias)
					c.body = bodyEdge
					for c.strips = 1; c.strips <= kern.mc/kern.mr; c.strips++ {
						for c.cols = 1; c.cols < kern.nr; c.cols++ {
							checkFinish(t, kern, c, pa, pb, cInit, bias)
						}
					}
					c.body = bodyRow
					for c.strips = 1; c.strips < kern.mr; c.strips++ {
						for c.cols = 1; c.cols <= kern.nr+1; c.cols++ {
							checkFinish(t, kern, c, pa, pb, cInit, bias)
						}
						c.cols = nc
						checkFinish(t, kern, c, pa, pb, cInit, bias)
					}
				}
			}
		}
	}
}

// FuzzFinish is TestFinishMatchesPaddedTile on fuzzed kernels, bodies,
// strip counts or heights, widths, depths, row strides, modes, epilogues
// and operand values.
func FuzzFinish(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(8), uint16(255), uint8(0), true, uint8(1), true)
	f.Add(int64(2), uint8(1), uint8(1), uint8(3), uint8(4), uint16(63), uint8(5), false, uint8(2), false)
	f.Add(int64(3), uint8(2), uint8(2), uint8(5), uint8(70), uint16(256), uint8(2), false, uint8(3), true)
	f.Add(int64(4), uint8(0), uint8(2), uint8(1), uint8(1), uint16(0), uint8(1), true, uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, ki, body, strips, cols uint8, kd uint16, ldcPad uint8, store bool, ek uint8, relu bool) {
		ks := finishKernels()
		kern := ks[int(ki)%len(ks)]
		c := finishCase{
			body:    int(body) % 3,
			kd:      1 + int(kd)%(kcBlock+1),
			store:   store,
			epiKind: int(ek) % epiKinds,
			relu:    relu,
		}
		switch c.body {
		case bodyEdge:
			c.strips = 1 + int(strips)%(kern.mc/kern.mr)
			c.cols = 1 + int(cols)%(kern.nr-1)
		case bodyRow:
			c.strips = 1 + int(strips)%(kern.mr-1)
			c.cols = 1 + int(cols)%(4*kern.nr)
		}
		nc := max(c.cols, kern.nr)
		c.ldc = nc + int(ldcPad)%8
		r := rand.New(rand.NewSource(seed))
		pa, pb, cInit, bias := finishOperands(r, kern, c.kd, nc, c.ldc, float64(seed&7)/16)
		checkFinish(t, kern, c, pa, pb, cInit, bias)
	})
}

// withActive runs fn with k as the active fp32 kernel.
func withActive(k *kernel[float32, float32, float32], fn func()) {
	prev := fp32Kernels.active.Load()
	fp32Kernels.active.Store(k)
	defer fp32Kernels.active.Store(prev)
	fn()
}

// accumulating returns a copy of kern that finishes nothing: without a row
// edge the walk runs every call through the unit accumulator and store.
func accumulating(kern *kernel[float32, float32, float32]) *kernel[float32, float32, float32] {
	k := *kern
	k.row = nil
	return &k
}

// TestInPlaceMatchesStore runs calls through each finishing kernel in C
// itself and through the same kernel's unit-accumulator walk and
// Call.store, and compares them bit for bit: heights and widths past
// whole tiles, a row stride wider than N, K of one step, a full panel and
// one past it, and every epilogue a finishing body runs, with signed
// zeros, infinities, NaNs and underflowing products in A, B and the
// biases. Two results that are both NaN need not share a payload in two
// places only: the Go kernel, whose operand orders are the compiler's,
// and a row bias under ReLU, where store's scalar tail (past the last
// whole 8 of a unit row) adds the sum first and its vector head, like the
// finishing bodies, the bias.
func TestInPlaceMatchesStore(t *testing.T) {
	for _, kern := range finishKernels() {
		plain := accumulating(kern)
		for _, mn := range [][2]int{{1, 1}, {kern.mr - 1, kern.nr + 3}, {kern.mr + 1, 2*kern.nr - 1}, {3*kern.mr + 2, 70}} {
			for _, k := range []int{1, kcBlock, kcBlock + 1} {
				m, n := mn[0], mn[1]
				r := rand.New(rand.NewSource(int64(m*1000 + n*10 + k)))
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				bias := make([]float32, max(m, n))
				edgeFill(r, a, 0.3)
				edgeFill(r, b, 0.3)
				edgeFill(r, bias, 0.25)
				ldc := n + 2
				cInit := make([]float32, m*ldc)
				edgeFill(r, cInit, 0.1)
				for ek := 0; ek < epiKinds; ek++ {
					for _, act := range []Activation{ActNone, ActReLU} {
						call := Call{A: a, B: b, M: m, N: n, K: k, Ldc: ldc, Store: true, Act: act}
						switch ek {
						case epiRow:
							call.BiasRow = bias[:m]
						case epiCol:
							call.BiasCol = bias[:n]
						case epiZeroRows:
							call.Act = ActReLU
						}
						run := func(k *kernel[float32, float32, float32]) []float32 {
							c := call
							c.C = append([]float32(nil), cInit...)
							var ctx Context
							withActive(k, func() { ctx.Run(c) })
							return c.C
						}
						got, want := run(kern), run(plain)
						for i := range got {
							g, w := got[i], want[i]
							nanOK := (kern.name == "go" || ek == epiRow && act == ActReLU) && g != g && w != w
							if math.Float32bits(g) != math.Float32bits(w) && !nanOK {
								t.Fatalf("%s m%d n%d k%d epi%d act%d: C[%d] = %#08x, store gives %#08x",
									kern.name, m, n, k, ek, act, i, math.Float32bits(g), math.Float32bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// TestFinishFallsBack pins which calls run in place: a storing call with
// K > 0, at most one bias and no activation or ReLU does; the accumulating
// form, K == 0, both biases at once, ReLU6 and LeakyReLU go through the
// unit accumulator and Call.store, whose results the epilogue tests hold.
func TestFinishFallsBack(t *testing.T) {
	bias := make([]float32, 8)
	base := Call{M: 8, N: 8, K: 4, Store: true}
	for _, tc := range []struct {
		name    string
		edit    func(*Call)
		inPlace bool
	}{
		{"plain", func(*Call) {}, true},
		{"BiasRow+ReLU", func(c *Call) { c.BiasRow, c.Act = bias, ActReLU }, true},
		{"BiasCol", func(c *Call) { c.BiasCol = bias }, true},
		{"ReLU", func(c *Call) { c.Act = ActReLU }, true},
		{"accumulating", func(c *Call) { c.Store = false }, false},
		{"K=0", func(c *Call) { c.K = 0 }, false},
		{"both biases", func(c *Call) { c.BiasRow, c.BiasCol = bias, bias }, false},
		{"ReLU6", func(c *Call) { c.Act = ActReLU6 }, false},
		{"LeakyReLU", func(c *Call) { c.Act, c.Alpha = ActLeakyReLU, 0.1 }, false},
	} {
		c := base
		c.C = make([]float32, 64)
		tc.edit(&c)
		if _, ok := c.epilogue(); ok != tc.inPlace {
			t.Errorf("%s: runs in C = %v, want %v", tc.name, ok, tc.inPlace)
		}
	}
}
