package gemm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Exact-width edge bodies and the raw-B panel packer. An edge body must
// give every element its kernel's padded tile gives, bit for bit, and
// write nothing else; packB must give every bit of the per-row copy loop
// it replaced.

// edgeSpecials are values whose bits a reordered or re-associated chain
// would change: signed zeros, infinities, NaNs with distinct payloads and
// signs (one signalling), so that which NaN operand an instruction
// propagates shows in the result, and two values whose product underflows
// to a signed zero, so that a one-step chain can be −0.
var edgeSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00abc),
	math.Float32frombits(0x7f800123), math.Float32frombits(0x7fd0f00d),
	1e-25, -1e-25,
}

// edgeFill fills v with normal values in [-1, 1) and, with probability
// special, one of edgeSpecials.
func edgeFill(r *rand.Rand, v []float32, special float64) {
	for i := range v {
		if r.Float64() < special {
			v[i] = edgeSpecials[r.Intn(len(edgeSpecials))]
			continue
		}
		v[i] = r.Float32()*2 - 1
	}
}

// edgeKernels returns the fp32 kernels selectable here that have an edge
// body.
func edgeKernels() []*kernel[float32, float32, float32] {
	var ks []*kernel[float32, float32, float32]
	for _, k := range fp32Kernels.kernels {
		if k.edge != nil {
			ks = append(ks, k)
		}
	}
	return ks
}

// edgeCase is one edge call: strips A strips of kd k-groups against the
// first cols columns of one B strip, into a tile of row stride ldc.
type edgeCase struct {
	strips, cols, kd, ldc int
	store                 bool
}

func (c edgeCase) String() string {
	return fmt.Sprintf("strips%d_cols%d_kd%d_ldc%d_store%v", c.strips, c.cols, c.kd, c.ldc, c.store)
}

// edgeGuard is how many cells of the tile buffer lie before and after the
// tile; the edge must leave them, like every cell outside its columns,
// as they were.
const edgeGuard = 19

// checkEdge runs kern's edge body on pa, pb and a tile buffer initialised
// from cInit, and kern's padded tile strip by strip on the same operands
// and buffer, then compares: the first c.cols columns of every row of the
// strips bit for bit, and every other cell of the edge's buffer against
// cInit.
func checkEdge(t testing.TB, kern *kernel[float32, float32, float32], c edgeCase, pa, pb, cInit []float32) {
	t.Helper()
	mr, nr := kern.mr, kern.nr
	rows := c.strips * mr
	size := edgeGuard + rows*c.ldc + edgeGuard
	got, want := append([]float32(nil), cInit[:size]...), append([]float32(nil), cInit[:size]...)
	pa, pb = pa[:c.strips*c.kd*mr], pb[:c.kd*nr]
	kern.edge(pa, pb, got[edgeGuard:], c.kd, c.ldc, c.strips, c.cols, c.store, nil, 0, 0)
	for s := 0; s < c.strips; s++ {
		kern.micro(pa[s*c.kd*mr:], pb, want[edgeGuard+s*mr*c.ldc:], c.kd, c.ldc, c.store, nil, 0, 0)
	}
	for i := range got {
		r, col := (i-edgeGuard)/c.ldc, (i-edgeGuard)%c.ldc
		in := i >= edgeGuard && r < rows && col < c.cols
		ref := cInit[i]
		if in {
			ref = want[i]
		}
		if !sameEdgeBits(kern, got[i], ref) {
			where := "guard cell"
			if in {
				where = "tile cell"
			}
			t.Fatalf("%s %v: %s %d (row %d col %d) = %#08x, want %#08x",
				kern.name, c, where, i, r, col, math.Float32bits(got[i]), math.Float32bits(ref))
		}
	}
}

// sameEdgeBits reports whether kern's edge value got matches ref: bit for
// bit, except that the portable kernel's NaNs need only both be NaN. Go
// leaves the operand order of a commutative float operation to the
// compiler, and with it which of two NaN operands' payloads propagates —
// microKernelGo itself propagates B's payload in one product and A's in
// the next — so no Go body can promise the tile's payloads.
func sameEdgeBits(kern *kernel[float32, float32, float32], got, ref float32) bool {
	if kern.name == "go" && got != got && ref != ref {
		return true
	}
	return math.Float32bits(got) == math.Float32bits(ref)
}

// TestEdgeMatchesPaddedTile holds every edge body to its kernel's padded
// tile, bit for bit (see sameEdgeBits), over every edge width, every strip
// count of an M-tile, panel depths from one k-group to a full panel, both
// modes, a tile wider than the strip, and operands and accumulators seeded
// with signed zeros, infinities and NaNs.
func TestEdgeMatchesPaddedTile(t *testing.T) {
	for _, kern := range edgeKernels() {
		t.Run(kern.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			maxStrips := kern.mc / kern.mr
			pa := make([]float32, maxStrips*kcBlock*kern.mr)
			pb := make([]float32, kcBlock*kern.nr)
			cInit := make([]float32, 2*edgeGuard+kern.mc*(kern.nr+3))
			edgeFill(r, pa, 0.01)
			edgeFill(r, pb, 0.01)
			edgeFill(r, cInit, 0.05)
			for _, kd := range []int{1, 3, 64, 255, 256} {
				for strips := 1; strips <= maxStrips; strips++ {
					for cols := 1; cols < kern.nr; cols++ {
						for _, store := range []bool{true, false} {
							ldc := kern.nr + 3*(strips%2)
							checkEdge(t, kern, edgeCase{strips, cols, kd, ldc, store}, pa, pb, cInit)
						}
					}
				}
			}
		})
	}
}

// FuzzEdgeTile is TestEdgeMatchesPaddedTile on fuzzed kernels, strip
// counts, widths, depths, row strides, modes and operand values.
func FuzzEdgeTile(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(1), uint16(255), uint8(0), true)
	f.Add(int64(2), uint8(1), uint8(3), uint8(4), uint16(63), uint8(5), false)
	f.Add(int64(3), uint8(2), uint8(21), uint8(15), uint16(0), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, ki, strips, cols uint8, kd uint16, ldcPad uint8, store bool) {
		ks := edgeKernels()
		kern := ks[int(ki)%len(ks)]
		c := edgeCase{
			strips: 1 + int(strips)%(kern.mc/kern.mr),
			cols:   1 + int(cols)%(kern.nr-1),
			kd:     1 + int(kd)%kcBlock,
			ldc:    kern.nr + int(ldcPad)%8,
			store:  store,
		}
		r := rand.New(rand.NewSource(seed))
		special := float64(seed&7) / 16
		pa := make([]float32, c.strips*c.kd*kern.mr)
		pb := make([]float32, c.kd*kern.nr)
		cInit := make([]float32, 2*edgeGuard+c.strips*kern.mr*c.ldc)
		edgeFill(r, pa, special)
		edgeFill(r, pb, special)
		edgeFill(r, cInit, special)
		checkEdge(t, kern, c, pa, pb, cInit)
	})
}

// packBRef is the per-row packer packB replaced, kept as its oracle: one
// copy per strip row, then the row's padding cleared.
func packBRef(dst, b []float32, pp, jj, kc, nc, ldb, nr int) {
	di := 0
	for j := 0; j < nc; j += nr {
		cols := min(nr, nc-j)
		base := pp*ldb + jj + j
		for p := 0; p < kc; p++ {
			copy(dst[di:di+cols], b[base:base+cols])
			for cc := cols; cc < nr; cc++ {
				dst[di+cc] = 0
			}
			di += nr
			base += ldb
		}
	}
}

// TestPackBMatchesRef holds packB to packBRef bit for bit — every bit
// pattern of B, NaN payloads included — over every panel depth and every
// panel width up to past a full column block, both strip widths the
// kernels use, a row stride wider than the panel and a panel origin off
// the matrix corner, with guard cells after the panel that neither may
// write.
func TestPackBMatchesRef(t *testing.T) {
	const pp, jj, guard = 3, 5, 21
	const maxN = ncBlock + 16
	r := rand.New(rand.NewSource(43))
	ldb := jj + maxN + 7
	b := make([]float32, (pp+MaxPanelK)*ldb)
	for i := range b {
		b[i] = math.Float32frombits(r.Uint32())
	}
	sentinel := math.Float32frombits(0x7fbadbad) // a signalling NaN
	var got, want []float32
	check := func(kc, nc, nr int) {
		n := roundUp(nc, nr)*kc + guard
		got, want = grow(got, n)[:n], grow(want, n)[:n]
		for i := range got {
			got[i], want[i] = sentinel, sentinel
		}
		packB(got, b, pp, jj, kc, nc, ldb, nr)
		packBRef(want, b, pp, jj, kc, nc, ldb, nr)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("nr %d kc %d nc %d: element %d of %d = %#08x, want %#08x",
					nr, kc, nc, i, n, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	for _, nr := range []int{16, 8} {
		for kc := 1; kc <= MaxPanelK; kc++ {
			for _, nc := range []int{1, nr - 1, nr + 1, 49, 196} {
				check(kc, nc, nr)
			}
		}
		for nc := 1; nc <= maxN; nc++ {
			for _, kc := range []int{1, 3, 64, MaxPanelK} {
				check(kc, nc, nr)
			}
		}
	}
}
