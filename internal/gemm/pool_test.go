package gemm

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"orpheus/internal/tensor"
)

// dimsUnderTest stresses ragged shapes: rows not a multiple of mr, cols
// not a multiple of nr, shapes smaller than one micro-tile, small-M
// many-N conv-style GEMMs, and shapes spanning several macro-tiles.
var dimsUnderTest = [][3]int{
	{1, 1, 1},
	{3, 5, 7},
	{5, 9, 3},
	{4, 8, 4},
	{63, 65, 127},
	{130, 258, 300},
	{6, 1100, 40},  // small-M, wide-N: tiles split over columns
	{300, 12, 500}, // tall, narrow
	{97, 83, 61},
	{3, 4, 5}, // fewer rows than workers
	// Row counts around the M-tile boundaries, for the worker budgets
	// beyond the unit count.
	{1, 67, 43}, {2, 67, 43}, {129, 67, 43}, {131, 67, 43}, {258, 67, 43},
}

func naiveWant(a, b, c []float32, m, n, k int, store bool) []float32 {
	want := make([]float32, m*n)
	if !store {
		copy(want, c)
	}
	Naive(a, b, want, m, n, k)
	return want
}

func TestPoolRunMatchesNaive(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	for _, workers := range []int{1, 2, 3, 4, 7, 8, 16, 64} {
		for _, store := range []bool{false, true} {
			for _, dims := range dimsUnderTest {
				m, n, k := dims[0], dims[1], dims[2]
				r := tensor.NewRNG(uint64(1000*workers + m + n + k))
				a := randMat(r, m, k)
				b := randMat(r, k, n)
				seed := randMat(r, m, n) // pre-existing C contents
				want := naiveWant(a, b, seed, m, n, k, store)
				got := make([]float32, m*n)
				copy(got, seed)
				var ctx Context
				pool.Run(&ctx, Call{A: a, B: b, C: got, M: m, N: n, K: k, Store: store}, workers)
				if d := maxDiff(want, got); d > 1e-3 {
					t.Fatalf("pool workers=%d store=%v dims=%v differs from Naive: %v", workers, store, dims, d)
				}
			}
		}
	}
}

func TestPrepackedOperandsMatchNaive(t *testing.T) {
	for _, dims := range dimsUnderTest {
		m, n, k := dims[0], dims[1], dims[2]
		r := tensor.NewRNG(uint64(7000 + m + 3*n + 7*k))
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		want := naiveWant(a, b, nil, m, n, k, true)
		pa := PrepackA(a, m, k)
		pb := PrepackB(b, k, n)
		if len(pa) != PackedASize(m, k) || len(pb) != PackedBSize(k, n) {
			t.Fatalf("prepack sizes %d/%d, want %d/%d", len(pa), len(pb), PackedASize(m, k), PackedBSize(k, n))
		}
		var ctx Context
		for name, call := range map[string]Call{
			"packedA":  {PackedA: pa, B: b, C: make([]float32, m*n), M: m, N: n, K: k, Store: true},
			"packedB":  {A: a, PackedB: pb, C: make([]float32, m*n), M: m, N: n, K: k, Store: true},
			"packedAB": {PackedA: pa, PackedB: pb, C: make([]float32, m*n), M: m, N: n, K: k, Store: true},
		} {
			ctx.Run(call)
			if d := maxDiff(want, call.C); d > 1e-3 {
				t.Fatalf("%s dims=%v differs from Naive: %v", name, dims, d)
			}
		}
	}
}

func TestPoolPrepackedParallel(t *testing.T) {
	m, n, k := 130, 1100, 300
	r := tensor.NewRNG(11)
	a := randMat(r, m, k)
	b := randMat(r, k, n)
	want := naiveWant(a, b, nil, m, n, k, true)
	got := make([]float32, m*n)
	var ctx Context
	Shared().Run(&ctx, Call{PackedA: PrepackA(a, m, k), B: b, C: got, M: m, N: n, K: k, Store: true}, 4)
	if d := maxDiff(want, got); d > 1e-3 {
		t.Fatalf("parallel prepacked GEMM differs from Naive: %v", d)
	}
}

func TestStoreOverwritesGarbage(t *testing.T) {
	m, n, k := 9, 17, 5
	r := tensor.NewRNG(21)
	a := randMat(r, m, k)
	b := randMat(r, k, n)
	want := naiveWant(a, b, nil, m, n, k, true)
	got := make([]float32, m*n)
	for i := range got {
		got[i] = 1e9 // must be fully replaced
	}
	var ctx Context
	ctx.PackedStore(a, b, got, m, n, k)
	if d := maxDiff(want, got); d > 1e-3 {
		t.Fatalf("store GEMM left stale C contents: %v", d)
	}
	// Store with K == 0 zeroes C (beta=0 with an empty product).
	ctx.Run(Call{C: got, M: m, N: n, K: 0, Store: true})
	for i, v := range got {
		if v != 0 {
			t.Fatalf("store with k=0 did not zero C at %d: %v", i, v)
		}
	}
}

// TestPoolConcurrentCallers drives one shared pool from several goroutines
// at once, as pooled serving sessions do. Run with -race.
func TestPoolConcurrentCallers(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ctx Context
			for trial := 0; trial < 8; trial++ {
				m, n, k := 37+g, 530+trial, 64+3*g
				r := tensor.NewRNG(uint64(100*g + trial))
				a := randMat(r, m, k)
				b := randMat(r, k, n)
				want := naiveWant(a, b, nil, m, n, k, true)
				got := make([]float32, m*n)
				pool.Run(&ctx, Call{A: a, B: b, C: got, M: m, N: n, K: k, Store: true}, 3)
				if d := maxDiff(want, got); d > 1e-3 {
					errs <- fmt.Errorf("caller %d trial %d differs: %v", g, trial, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// panickyPack is a pack source of either dtype whose every panel request
// panics — a stand-in for a buggy im2col source, used to prove the pool
// contains worker panics.
type panickyPack struct{}

func (panickyPack) PackPanel(dst []float32, img, pp, jj, kc, nc, nr int) {
	panic("panickyPack: poisoned panel")
}

func (panickyPack) PackPanel8(dst []byte, img, pp, jj, kc, nc, nr int) {
	panic("panickyPack: poisoned panel")
}

// TestPoolPanicIsolation pins the pool's panic barrier for every kind of
// work that goes through submit: a panic inside a worker's share of a job
// is re-raised on the submitting goroutine (so the session layer can
// convert it into a typed error), the workers survive, and the pool keeps
// computing correct GEMMs afterwards. Every poisoned call has several
// units, so helpers take part in it.
func TestPoolPanicIsolation(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	m, n, k := 64, 2048, 32
	r := tensor.NewRNG(5)
	a := randMat(r, m, k)

	for _, poison := range []struct {
		kind string
		run  func(ctx *Context)
	}{
		{"gemm", func(ctx *Context) {
			pool.Run(ctx, Call{A: a, BPack: panickyPack{}, C: make([]float32, m*n), M: m, N: n, K: k, Store: true}, 4)
		}},
		{"gemm8", func(ctx *Context) {
			pool.RunInt8(ctx, CallInt8{PackedA: make([]int8, PackedAInt8Size(m, k)), B: panickyPack{}, C: make([]float32, m*n), M: m, N: n, K: k,
				ScaleA: make([]float32, m), RowSum: make([]int32, m), BScale: []float32{1}, BZero: []int32{0}}, 4)
		}},
		{"sweep", func(*Context) { // the second half of the rows lies beyond data
			pool.Sweep(make([]float32, m*n/2), nil, m, n, ActReLU, 0, 4)
		}},
	} {
		for trial := 0; trial < 3; trial++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s trial %d: poisoned call did not re-raise the panic", poison.kind, trial)
					}
				}()
				var ctx Context
				poison.run(&ctx)
			}()
		}
	}

	// The pool must still be fully alive: drive it concurrently and check
	// results against the naive reference.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := tensor.NewRNG(uint64(900 + g))
			b := randMat(rr, k, n)
			want := naiveWant(a, b, nil, m, n, k, true)
			got := make([]float32, m*n)
			var ctx Context
			pool.Run(&ctx, Call{A: a, B: b, C: got, M: m, N: n, K: k, Store: true}, 3)
			if d := maxDiff(want, got); d > 1e-3 {
				errs <- fmt.Errorf("caller %d after panic: differs from Naive by %v", g, d)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// panelCounts counts pack requests per (img, pp, jj) panel, from any
// goroutine.
type panelCounts struct {
	mu sync.Mutex
	n  map[[3]int]int
}

func (p *panelCounts) add(img, pp, jj int) {
	p.mu.Lock()
	if p.n == nil {
		p.n = map[[3]int]int{}
	}
	p.n[[3]int{img, pp, jj}]++
	p.mu.Unlock()
}

// check holds the requests counted since the last check to the unit walk's
// point: a k-deep call cut as g asks for every panel of every image's K×N
// extent, and for each exactly once per row group — once in all when one
// group spans M. It resets the counts.
func (p *panelCounts) check(t *testing.T, label string, g unitGrid, k int) {
	t.Helper()
	if want := g.images * ceilDiv(k, kcBlock) * ceilDiv(g.n, g.nc); len(p.n) != want {
		t.Errorf("%s: packed %d distinct panels, want %d", label, len(p.n), want)
	}
	groups := ceilDiv(g.m, g.gm)
	for key, n := range p.n {
		if n != groups {
			t.Errorf("%s: panel (img %d, pp %d, jj %d) packed %d times for %d row groups", label, key[0], key[1], key[2], n, groups)
		}
	}
	p.n = nil
}

// countingSrc wraps a PackSrc and counts the requests per panel.
type countingSrc struct {
	PackSrc
	panelCounts
}

func (s *countingSrc) PackPanel(dst []float32, img, pp, jj, kc, nc, nr int) {
	s.add(img, pp, jj)
	s.PackSrc.PackPanel(dst, img, pp, jj, kc, nc, nr)
}

// TestPacksEachPanelOnce is the fp32 twin of TestInt8PacksEachPanelOnce:
// with four M-tiles (M = 512) a serial call asks its source for every
// panel exactly once, a pooled one — which may split M to feed its workers
// — exactly once per row group, and the pooled C is bit-identical to the
// serial one.
func TestPacksEachPanelOnce(t *testing.T) {
	for _, tc := range []struct{ m, n, k, batch int }{
		{m: 512, n: 49, k: 600, batch: 1},
		{m: 512, n: 700, k: 300, batch: 2},
	} {
		t.Run(fmt.Sprintf("m%d_n%d_k%d_b%d", tc.m, tc.n, tc.k, tc.batch), func(t *testing.T) {
			r := tensor.NewRNG(99)
			src := &countingSrc{PackSrc: &matrixSrc{b: randMat(r, tc.batch*tc.k, tc.n), k: tc.k, n: tc.n, strideB: tc.k * tc.n}}
			call := Call{A: randMat(r, tc.m, tc.k), BPack: src, C: make([]float32, tc.batch*tc.m*tc.n),
				M: tc.m, N: tc.n, K: tc.k, Store: true, Batch: tc.batch, StrideC: tc.m * tc.n,
				BiasRow: randMat(r, tc.m, 1), Act: ActReLU}
			grid := func(workers int) unitGrid {
				return blocking(tc.m, tc.n, tc.batch, workers, fp32Kernels.get().mc)
			}
			var ctx Context
			ctx.Run(call)
			src.check(t, "serial", grid(1), tc.k)
			serial := append([]float32(nil), call.C...)
			pool := NewPool(4)
			defer pool.Close()
			for _, workers := range []int{2, 4} {
				for i := range call.C {
					call.C[i] = -1
				}
				pool.Run(&ctx, call, workers)
				src.check(t, fmt.Sprintf("workers=%d", workers), grid(workers), tc.k)
				sameBits(t, fmt.Sprintf("workers=%d", workers), call.C, serial)
			}
		})
	}
}

// sameBits fails unless got and want hold the same float32 bit patterns.
func sameBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: C[%d] = %v, serial %v", label, i, got[i], want[i])
		}
	}
}

// TestPoolBitIdenticalToSerial runs every kind of pooled work — each
// operand form of an fp32 call, int8 calls, sweeps — at worker budgets
// below, at and beyond both the pool size and the unit count, and holds
// each result to the serial walk's bit for bit: the cut into units must
// not change what any C element accumulates, or in which order. Run with
// -race.
func TestPoolBitIdenticalToSerial(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	r := tensor.NewRNG(31)
	const m, n, k, batch = 300, 700, 300, 2
	a, b := randMat(r, m, k), randMat(r, batch*k, n)
	perImageA := randMat(r, batch*m, k)
	biasRow, biasCol := randMat(r, m, 1), randMat(r, n, 1)
	cInit := randMat(r, batch*m, n)
	pa, pb := PrepackA(a, m, k), PrepackB(b, k, n)

	ic := int8Case{m: 520, n: 530, k: 270, batch: 2, bias: true, act: ActReLU}
	a8, scaleA, rowSum, b8, bias8 := int8Buffers(ic, 17)
	src8 := newTestSrc8(b8, ic.k, ic.n, ic.batch, ic.k*ic.n)

	// Each case returns the C a call with the given worker budget leaves.
	gemmCase := func(c Call) func(int) []float32 {
		return func(workers int) []float32 {
			c.C = append([]float32(nil), cInit...)
			var ctx Context
			pool.Run(&ctx, c, workers)
			return c.C
		}
	}
	for _, tc := range []struct {
		name string
		run  func(workers int) []float32
	}{
		{"BPack", gemmCase(Call{A: a, BPack: &matrixSrc{b: b, k: k, n: n, strideB: k * n}, M: m, N: n, K: k,
			Store: true, Batch: batch, StrideC: m * n, BiasRow: biasRow, Act: ActReLU})},
		{"APack+PackedB batched", gemmCase(Call{APack: &matSrcA{data: perImageA, m: m, k: k}, PackedB: pb, M: m, N: n, K: k,
			Store: true, Batch: batch, StrideC: m * n})},
		{"PackedA+PackedB accumulate", gemmCase(Call{PackedA: pa, PackedB: pb, M: m, N: n, K: k})},
		{"Ldc window", gemmCase(Call{A: a, B: b, M: m, N: n - 60, K: k, Ldc: n, Store: true, Act: ActLeakyReLU, Alpha: 0.1})},
		{"BiasCol", gemmCase(Call{A: a, BPack: &matrixSrc{b: b, k: k, n: n, strideB: k * n}, M: m, N: n, K: k,
			Store: true, Batch: batch, StrideC: m * n, BiasCol: biasCol, Act: ActReLU6})},
		{"K=0 epilogue", gemmCase(Call{M: m, N: n, K: 0, Store: true, BiasRow: biasRow, BiasCol: biasCol, Act: ActReLU})},
		{"one unit", gemmCase(Call{A: a, B: b, M: 3, N: 4, K: 5})},
		{"int8", func(workers int) []float32 {
			call := buildCall(ic, a8, scaleA, rowSum, src8, bias8)
			var ctx Context
			pool.RunInt8(&ctx, call, workers)
			return call.C
		}},
		{"sweep", func(workers int) []float32 {
			data := append([]float32(nil), cInit...)
			pool.Sweep(data, biasRow, batch*m, n, ActReLU, 0, workers)
			return data
		}},
	} {
		serial := tc.run(1)
		for _, workers := range []int{2, 4, 7} {
			sameBits(t, fmt.Sprintf("%s workers=%d", tc.name, workers), tc.run(workers), serial)
		}
	}
}

// TestBlocking checks the invariants runUnit and the pool rely on for any
// shape and worker count, at both M-tile heights the kernels have (128,
// and 126 for the 6-row fp32 avx2 tile): blocks fit the accumulator
// cap and every kernel geometry, the units tile every image's C, one
// worker gets whole-M groups (up to the cap's height), and a many-worker
// call is cut into at least as many units as there are workers or M-tiles
// × 512-column blocks to hand out.
func TestBlocking(t *testing.T) {
	for _, mc := range []int{mcBlock, 126} {
		for _, m := range []int{1, 64, 128, 129, 512, 1000, 2048, 5000} {
			for _, n := range []int{1, 49, 196, 512, 513, 12544} {
				for _, images := range []int{1, 3} {
					for _, workers := range []int{1, 2, 4, 7, 64} {
						g := blocking(m, n, images, workers, mc)
						nc, gm := g.nc, g.gm
						if nc%ncMin != 0 || nc < ncMin || nc > ncBlock || gm%mc != 0 || gm < mc || gm*nc > accCap {
							t.Fatalf("mc%d m%d n%d img%d w%d: nc %d gm %d break the blocking bounds", mc, m, n, images, workers, nc, gm)
						}
						if nc < ncBlock && gm*(nc+ncMin) <= accCap {
							t.Errorf("mc%d m%d n%d img%d w%d: nc %d is narrower than a %d-row group needs", mc, m, n, images, workers, nc, gm)
						}
						area := 0
						for i := 0; i < g.units(); i++ {
							img, i0, i1, jj, w := g.unit(i)
							if img < 0 || img >= images || i0%gm != 0 || i0 >= i1 || i1 > m || jj%nc != 0 || w < 1 || jj+w > n {
								t.Fatalf("mc%d m%d n%d img%d w%d: unit %d = img %d rows [%d,%d) cols [%d,+%d)", mc, m, n, images, workers, i, img, i0, i1, jj, w)
							}
							area += (i1 - i0) * w
						}
						if area != images*m*n {
							t.Errorf("mc%d m%d n%d img%d w%d: units cover %d elements of %d", mc, m, n, images, workers, area, images*m*n)
						}
						tm := ceilDiv(m, mc)
						if fewest := ceilDiv(tm, accCap/(mc*ncMin)); workers == 1 && ceilDiv(m, gm) != fewest {
							t.Errorf("mc%d m%d n%d: serial call cut into %d groups re-packs panels, %d fit", mc, m, n, ceilDiv(m, gm), fewest)
						}
						if old := tm * ceilDiv(n, ncBlock) * images; g.units() < min(workers, old) {
							t.Errorf("mc%d m%d n%d img%d w%d: %d units, per-tile blocking had %d", mc, m, n, images, workers, g.units(), old)
						}
					}
				}
			}
		}
	}
}

// TestRunAllocFree holds the four GEMM entry points — Context.Run and
// RunInt8, Pool.Run and RunInt8 at one and two workers — to zero heap
// allocations per run once the scratch has grown. The walk reaches a
// call's operands through an interface, so a call that strays onto the
// heap shows up here. AllocsPerRun counts whole allocations per run: a
// pool helper growing its scratch the first time it is handed a unit, or
// a job the race detector's sync.Pool dropped, is not one.
func TestRunAllocFree(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	r := tensor.NewRNG(8)
	const m, n, k = 300, 200, 260
	call := Call{PackedA: PrepackA(randMat(r, m, k), m, k), B: randMat(r, k, n), C: make([]float32, m*n),
		M: m, N: n, K: k, Store: true, BiasRow: randMat(r, m, 1), Act: ActReLU}
	ic := int8Case{m: 300, n: 200, k: 270, bias: true, act: ActReLU}
	a8, scaleA, rowSum, b8, bias8 := int8Buffers(ic, 8)
	call8 := buildCall(ic, a8, scaleA, rowSum, newTestSrc8(b8, ic.k, ic.n, 1, ic.k*ic.n), bias8)
	var ctx Context
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"Context.Run", func() { ctx.Run(call) }},
		{"Context.RunInt8", func() { ctx.RunInt8(call8) }},
		{"Pool.Run/workers=1", func() { pool.Run(&ctx, call, 1) }},
		{"Pool.Run/workers=2", func() { pool.Run(&ctx, call, 2) }},
		{"Pool.RunInt8/workers=1", func() { pool.RunInt8(&ctx, call8, 1) }},
		{"Pool.RunInt8/workers=2", func() { pool.RunInt8(&ctx, call8, 2) }},
	} {
		for i := 0; i < 3; i++ { // grow the scratch
			tc.run()
		}
		if avg := testing.AllocsPerRun(20, tc.run); avg != 0 {
			t.Errorf("%s allocates %v times per run, want 0", tc.name, avg)
		}
	}
}
