package gemm

// Micro-kernel dispatch.
//
// Both packed tiers are parameterised by a micro-kernel: the
// register-blocked inner loop that computes one mr×nr accumulator block
// per invocation, plus the mr/nr geometry that the packing routines, the
// prepacked panel layout (PackedASize, PackedBSize, PackedAInt8Size) and
// the unit accumulator are all derived from. Each tier keeps one registry
// of them (fp32Kernels, int8Kernels): the portable pure-Go 4x8 kernel,
// always present and the correctness reference for the others, then the
// SIMD kernels architecture files register at init when the CPU supports
// them — fp32 AVX2/FMA 6x16 and AVX-512 16x16 on amd64, NEON 8x8 on
// arm64; int8 AVX2 VPMADDUBSW 8x8 and AVX-512 VNNI 16x16 on amd64. Each
// tier has one kernel per instruction set, named after it, and the last
// registered kernel is the tier's default: a pinned name runs the kernel
// that production selects on a host whose widest instruction set it is.
//
// A kernel may also carry an exact-width column edge (edgeKernel) and an
// exact-height row edge (rowKernel), which make it a finishing kernel: the
// fp32 Go, AVX2 and AVX-512 kernels do. Their tile and edges accumulate a
// unit in C itself and apply the bias and activation in registers on the
// last k-panel, with the padded tile's bits. NEON (no arm64 host verifies
// it yet) and every int8 kernel have neither: they multiply the zero
// padding into a unit accumulator that the call's store writes to C.
//
// Selection order, per tier:
//
//  1. The ORPHEUS_GEMM_KERNEL environment variable, when it names a kernel
//     of the tier ("go", "avx2", "avx512", "neon"; int8: "go", "avx2",
//     "vnni"), pins the choice — the A/B knob for same-host kernel
//     comparisons. A kernel family of the tier that this CPU cannot run
//     warns and falls through to the default. Other names are typos:
//     the fp32 tier ignores them with a GODEBUG-style warning, and the
//     int8 tier, for which the fp32-only spellings are not typos, stays
//     quiet so one bad value warns once.
//  2. Otherwise the widest registered SIMD kernel for this CPU.
//  3. Otherwise (non-amd64/arm64, the noasm build tag, or a CPU without
//     the required features) the pure-Go kernel.
//
// Prepacked panels bake in the active kernel's geometry, so SetKernel and
// SetKernel8 invalidate buffers produced by earlier prepack calls; switch
// kernels only between plans, never while GEMMs are in flight.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// microKernel computes a full mr×nr block of c from packed panels A
// (elements A) and B (elements B): c[r][j] (+)= the dot product of row r's
// and column j's kd k-groups. ldc is the row stride of c in elements;
// store overwrites c instead of accumulating; kd ≥ 1. A finishing body
// (see kernel.row) finishes each element with e before it writes it, the
// block's first element being row r, column j of e's call; a nil e
// finishes nothing, and other kernels are only ever handed a nil e.
type microKernel[A, B, C any] func(pa []A, pb []B, c []C, kd, ldc int, store bool, e *epi, r, j int)

// edgeKernel is a micro-kernel's exact-width column edge: for each of
// strips consecutive A strips (kd·mr values apart in pa) it computes the
// first cols < nr columns of the block micro would compute against the B
// strip pb, into rows strip·mr … of c. Each of those elements is the chain
// micro runs for it — the same products in the same k order from +0,
// stored or added to c with the same operand order, then finished by e —
// so it is bit for bit micro's element; columns [cols, nr) of c and
// everything beyond the strips' rows are left untouched.
type edgeKernel[A, B, C any] func(pa []A, pb []B, c []C, kd, ldc, strips, cols int, store bool, e *epi, r, j int)

// rowKernel is a micro-kernel's exact-height row edge, the column edge's
// twin: the first rows < mr rows of the A strip pa against every strip of
// the B panel pb (kd·nr values apart) up to column nc, into rows 0 … rows-1
// of c. Each element is micro's chain for it, stored or added and then
// finished by e as micro would; rows [rows, mr) and columns from nc on are
// left untouched.
type rowKernel[A, B, C any] func(pa []A, pb []B, c []C, kd, ldc, rows, nc int, store bool, e *epi, r, j int)

// kernel bundles a micro-kernel with the packing geometry it consumes. mc
// is the M-tile height: mcBlock rounded down to a multiple of mr, so every
// interior panel is a whole number of strips (a tile height that is not a
// power of two, like the 6-row avx2 tile's, does not divide 128 evenly)
// and the prepacked panel offsets pm*pp + ii*kc stay exact. Column blocks
// are cut from ncBlock in multiples of ncMin, which every nr divides.
//
// edge and row are nil for a kernel that runs a narrow last strip as a
// padded tile into the unit accumulator. A kernel that has them finishes
// its own output: micro, edge and row together cover any block of C
// exactly, so the walk runs them in C itself and hands them the call's
// epilogue on the last k-panel (see runUnit).
type kernel[A, B, C any] struct {
	name   string
	mr, nr int // micro-tile rows and columns
	mc     int // M-tile rows (a multiple of mr)
	micro  microKernel[A, B, C]
	edge   edgeKernel[A, B, C]
	row    rowKernel[A, B, C]
}

func newKernel[A, B, C any](name string, mr, nr int, micro microKernel[A, B, C]) *kernel[A, B, C] {
	return &kernel[A, B, C]{name: name, mr: mr, nr: nr, mc: mcBlock - mcBlock%mr, micro: micro}
}

// withEdges gives k the exact-width column edge and exact-height row edge
// that make it a finishing kernel.
func (k *kernel[A, B, C]) withEdges(edge edgeKernel[A, B, C], row rowKernel[A, B, C]) *kernel[A, B, C] {
	k.edge, k.row = edge, row
	return k
}

// Micro-tile geometry bounds, which register enforces: no kernel is taller
// than 16 rows or wider than 16 columns. The panel scratch of a Context is
// sized for these bounds so it never depends on dispatch.
const (
	maxMR = 16
	maxNR = 16
)

// registry is one tier's kernel table: the pure-Go kernel first, then the
// SIMD kernels usable on this CPU in ascending preference order.
type registry[A, B, C any] struct {
	tier     string          // "" or "int8 ", for messages
	kgroup   int             // k values per packed group: 1, or kQuad for int8
	families map[string]bool // every kernel name of the tier, on any arch
	quiet    bool            // names outside families are another tier's to warn about
	kernels  []*kernel[A, B, C]
	active   atomic.Pointer[kernel[A, B, C]]
}

var (
	fp32Kernels = &registry[float32, float32, float32]{
		kgroup:   1,
		families: map[string]bool{"go": true, "avx2": true, "avx512": true, "neon": true},
		kernels:  []*kernel[float32, float32, float32]{newKernel("go", 4, 8, microKernelGo).withEdges(edgeGo, rowGo)},
	}
	int8Kernels = &registry[int8, byte, int32]{
		tier:     "int8 ",
		kgroup:   kQuad,
		families: map[string]bool{"go": true, "avx2": true, "vnni": true},
		quiet:    true,
		kernels:  []*kernel[int8, byte, int32]{newKernel("go", 4, 8, microKernel8Go)},
	}
)

// register adds a SIMD kernel to the table. Called only from package init,
// before any GEMM runs.
func (r *registry[A, B, C]) register(k *kernel[A, B, C]) {
	if k.mr > maxMR || k.nr > maxNR || ncMin%k.nr != 0 {
		panicf("gemm: %skernel %s tile %dx%d exceeds %dx%d or does not divide %d-column blocks",
			r.tier, k.name, k.mr, k.nr, maxMR, maxNR, ncMin)
	}
	if !r.families[k.name] {
		panicf("gemm: %skernel %s missing from its families", r.tier, k.name)
	}
	r.kernels = append(r.kernels, k)
}

// KernelEnv is the environment variable that pins the micro-kernel choice
// at process start, e.g. ORPHEUS_GEMM_KERNEL=go to force the portable
// fallback when A/B-testing the SIMD kernels on the same host.
const KernelEnv = "ORPHEUS_GEMM_KERNEL"

// get returns the kernel in effect, resolving the default on first use
// (after all init registration).
func (r *registry[A, B, C]) get() *kernel[A, B, C] {
	if k := r.active.Load(); k != nil {
		return k
	}
	k, warn := r.resolve(os.Getenv(KernelEnv))
	if warn != "" {
		fmt.Fprintln(os.Stderr, warn)
	}
	r.active.CompareAndSwap(nil, k)
	return r.active.Load()
}

// resolve maps an ORPHEUS_GEMM_KERNEL value to the kernel to use plus a
// warning to emit (empty when the request was honoured or absent), by the
// selection order at the top of this file. An unavailable family falls
// through rather than erroring, so one deployment config can span
// heterogeneous hosts.
func (r *registry[A, B, C]) resolve(name string) (k *kernel[A, B, C], warn string) {
	if k := r.lookup(name); k != nil {
		return k, ""
	}
	best := r.kernels[len(r.kernels)-1]
	switch {
	case r.families[name]:
		warn = fmt.Sprintf("gemm: %s=%q not available on this CPU; falling back to %skernel %q", KernelEnv, name, r.tier, best.name)
	case name != "" && !r.quiet:
		warn = fmt.Sprintf("gemm: ignoring %s=%q (known kernels: %v)", KernelEnv, name, r.names())
	}
	return best, warn
}

// lookup returns the named kernel, or nil.
func (r *registry[A, B, C]) lookup(name string) *kernel[A, B, C] {
	for _, k := range r.kernels {
		if k.name == name {
			return k
		}
	}
	return nil
}

// names lists the selectable kernels, "go" first; the last is the default.
func (r *registry[A, B, C]) names() []string {
	names := make([]string, len(r.kernels))
	for i, k := range r.kernels {
		names[i] = k.name
	}
	return names
}

// set selects the named kernel for all subsequent calls of the tier.
func (r *registry[A, B, C]) set(name string) error {
	k := r.lookup(name)
	if k == nil {
		return fmt.Errorf("gemm: unknown %skernel %q (known: %v)", r.tier, name, r.names())
	}
	r.active.Store(k)
	return nil
}

// KernelName reports the name of the micro-kernel the fp32 packed tier
// currently dispatches to ("go", "avx2", "neon", ...).
func KernelName() string { return fp32Kernels.get().name }

// KernelNames lists the fp32 micro-kernels selectable on this CPU, the
// portable "go" kernel first, then registered SIMD kernels in ascending
// preference order. The last entry is the default absent an override.
func KernelNames() []string { return fp32Kernels.names() }

// SetKernel selects the named fp32 micro-kernel for all subsequent
// packed-tier calls and returns an error for names not selectable on this
// CPU.
//
// Switching kernels changes the packed-panel geometry: buffers produced by
// PrepackA/PrepackB under the previous kernel are invalid afterwards and
// must be re-packed (plan-level caches rebuild them on the next plan).
// SetKernel must not race in-flight GEMMs; it exists for harness ablations
// and tests that compare kernels within one process.
func SetKernel(name string) error { return fp32Kernels.set(name) }

// Kernel8Name reports the name of the int8 micro-kernel the quantized tier
// currently dispatches to ("go", "avx2", "vnni").
func Kernel8Name() string { return int8Kernels.get().name }

// Kernel8Names lists the int8 micro-kernels selectable on this CPU, in the
// order KernelNames uses.
func Kernel8Names() []string { return int8Kernels.names() }

// SetKernel8 selects the named int8 micro-kernel for all subsequent
// quantized-tier calls. Like SetKernel, switching invalidates buffers
// produced by earlier PrepackAInt8 calls and must not race in-flight GEMMs.
func SetKernel8(name string) error { return int8Kernels.set(name) }

// adaptAsm wraps an assembly micro-kernel, which takes pointers into the
// packed panels and the accumulator, into a microKernel that finishes
// nothing. The walk calls micro-kernels on full tiles with kd ≥ 1 only, so
// the slices are never empty.
func adaptAsm[A, B, C any](asm func(pa *A, pb *B, c *C, kd, ldc int64, store bool)) microKernel[A, B, C] {
	return func(pa []A, pb []B, c []C, kd, ldc int, store bool, _ *epi, _, _ int) {
		asm(&pa[0], &pb[0], &c[0], int64(kd), int64(ldc), store)
	}
}

// The finishing assembly bodies take e at the block's row r, column j as
// two bias pointers (nil for none) and the activation flag (see epi.at).

// adaptTileAsm wraps a finishing assembly tile into a microKernel.
func adaptTileAsm(asm func(pa, pb, c *float32, kd, ldc int64, store bool, row, col *float32, relu bool)) microKernel[float32, float32, float32] {
	return func(pa, pb, c []float32, kd, ldc int, store bool, e *epi, r, j int) {
		row, col, relu := e.at(r, j)
		asm(&pa[0], &pb[0], &c[0], int64(kd), int64(ldc), store, row, col, relu)
	}
}

// adaptEdgeAsm wraps a finishing assembly column edge into an edgeKernel;
// the walk calls it with strips, cols and kd ≥ 1.
func adaptEdgeAsm(asm func(pa, pb, c *float32, kd, ldc, strips, cols int64, store bool, row, col *float32, relu bool)) edgeKernel[float32, float32, float32] {
	return func(pa, pb, c []float32, kd, ldc, strips, cols int, store bool, e *epi, r, j int) {
		row, col, relu := e.at(r, j)
		asm(&pa[0], &pb[0], &c[0], int64(kd), int64(ldc), int64(strips), int64(cols), store, row, col, relu)
	}
}

// adaptRowAsm wraps a finishing assembly row edge into a rowKernel; the
// walk calls it with rows, nc and kd ≥ 1.
func adaptRowAsm(asm func(pa, pb, c *float32, kd, ldc, rows, nc int64, store bool, row, col *float32, relu bool)) rowKernel[float32, float32, float32] {
	return func(pa, pb, c []float32, kd, ldc, rows, nc int, store bool, e *epi, r, j int) {
		row, col, relu := e.at(r, j)
		asm(&pa[0], &pb[0], &c[0], int64(kd), int64(ldc), int64(rows), int64(nc), store, row, col, relu)
	}
}
