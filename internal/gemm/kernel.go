package gemm

// Micro-kernel dispatch.
//
// The packed tier is parameterised by a micro-kernel: the register-blocked
// inner loop that computes one mr×nr block of C per invocation, plus the
// mr/nr geometry that the packing routines (packA/packB), the prepacked
// panel layout (PackedASize/PackedBSize) and the macro-kernel edge handling
// are all derived from. The portable pure-Go 4x8 kernel always exists;
// architecture files register wider SIMD kernels (AVX2/FMA 8x8 on amd64,
// NEON 8x8 on arm64) at init when the CPU supports them, and the best
// registered kernel becomes the process default.
//
// Selection order:
//
//  1. The ORPHEUS_GEMM_KERNEL environment variable, when set to a known
//     kernel name ("go", "avx2", "avx2-6x16", "avx512", "neon"), pins the
//     choice — the A/B knob for same-host kernel comparisons. A recognised
//     kernel family that is not available on this CPU warns and falls
//     through to the default; unknown names are ignored with a warning,
//     GODEBUG-style.
//  2. Otherwise the widest registered SIMD kernel for this CPU.
//  3. Otherwise (non-amd64/arm64, the noasm build tag, or a CPU without
//     the required features) the pure-Go kernel.
//
// Prepacked panels bake in the active kernel's geometry, so SetKernel
// invalidates buffers produced by earlier PrepackA/PrepackB calls; switch
// kernels only between plans, never while GEMMs are in flight.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// microKernelFunc computes a full mr×nr block of C from packed panels:
// C[r][cc] (+)= sum_p pa[p*mr+r] * pb[p*nr+cc]. ldc is the row stride of c
// in elements; store overwrites C instead of accumulating.
type microKernelFunc func(pa, pb, c []float32, kc, ldc int, store bool)

// kernel bundles a micro-kernel with the packing geometry it consumes. mc
// is the M-tile height: mcBlock rounded down to a multiple of mr so every
// interior panel is a whole number of strips (tiles taller than 8, like the
// 14x32 AVX-512 kernel, do not divide 128 evenly). Column blocks are cut
// from ncBlock in multiples of ncMin, which every nr divides.
type kernel struct {
	name   string
	mr, nr int // micro-tile rows and columns
	mc     int // M-tile rows (a multiple of mr)
	micro  microKernelFunc
}

// newKernel derives the M-tile height for a micro-tile. It keeps the
// PackedASize panel formula exact: with mc ≡ 0 (mod mr), roundUp(M, mr)
// splits as full panels of mc plus the rounded remainder, so panel offsets
// pm*pp + ii*kc stay valid.
func newKernel(name string, mr, nr int, micro microKernelFunc) *kernel {
	return &kernel{name: name, mr: mr, nr: nr, mc: mcBlock - mcBlock%mr, micro: micro}
}

// Micro-tile geometry bounds. Shared scratch (the macro-kernel edge-tile
// buffer, the packing contexts) is sized for the largest registered kernel.
const (
	maxMR = 16
	maxNR = 32
)

// goKernel is the portable pure-Go micro-kernel; always selectable as "go".
var goKernel = newKernel("go", 4, 8, microKernelGo)

// simdKernels holds the architecture kernels usable on this CPU, appended
// by arch-specific init functions in ascending preference order.
var simdKernels []*kernel

// kernelFamilies names every fp32 kernel the dispatch layer knows about on
// any architecture. A recognised name that is not selectable on this CPU
// (avx512 on a non-avx512 host, neon on amd64) falls through to the default
// with a warning instead of being treated as a typo.
var kernelFamilies = map[string]bool{
	"go":        true,
	"avx2":      true,
	"avx2-6x16": true,
	"avx512":    true,
	"neon":      true,
}

// registerKernel adds a SIMD kernel to the dispatch table. Called only
// from package init, before any GEMM runs.
func registerKernel(k *kernel) {
	if k.mr > maxMR || k.nr > maxNR {
		panicf("gemm: kernel %s tile %dx%d exceeds max %dx%d", k.name, k.mr, k.nr, maxMR, maxNR)
	}
	if k.mc <= 0 || k.mc > mcBlock || k.mc%k.mr != 0 || ncMin%k.nr != 0 {
		panicf("gemm: kernel %s tile %dx%d does not divide its %d-row M-tile (at most %d) and %d-column blocks",
			k.name, k.mr, k.nr, k.mc, mcBlock, ncMin)
	}
	if !kernelFamilies[k.name] {
		panicf("gemm: kernel %s missing from kernelFamilies", k.name)
	}
	simdKernels = append(simdKernels, k)
}

// active is the kernel all packing, prepacking and macro-kernel calls use.
// It is resolved lazily on first use (after all init registration) and
// replaced only by SetKernel.
var active atomic.Pointer[kernel]

// KernelEnv is the environment variable that pins the micro-kernel choice
// at process start, e.g. ORPHEUS_GEMM_KERNEL=go to force the portable
// fallback when A/B-testing the SIMD kernels on the same host.
const KernelEnv = "ORPHEUS_GEMM_KERNEL"

// activeKernel returns the kernel in effect, resolving the default on
// first use.
func activeKernel() *kernel {
	if k := active.Load(); k != nil {
		return k
	}
	active.CompareAndSwap(nil, defaultKernel())
	return active.Load()
}

// defaultKernel applies the selection order documented at the top of this
// file.
func defaultKernel() *kernel {
	k, warn := resolveKernel(os.Getenv(KernelEnv))
	if warn != "" {
		fmt.Fprintln(os.Stderr, warn)
	}
	return k
}

// resolveKernel maps an ORPHEUS_GEMM_KERNEL value to the kernel to use plus
// a warning to emit (empty when the request was honoured or absent). A name
// from a known kernel family that this CPU cannot run — e.g. avx512 on a
// non-avx512 host, or any SIMD name under the noasm tag — falls through to
// the best available kernel with a warning rather than erroring, so one
// deployment config can span heterogeneous hosts. Unknown names are
// ignored with the GODEBUG-style typo warning.
func resolveKernel(name string) (k *kernel, warn string) {
	best := goKernel
	if n := len(simdKernels); n > 0 {
		best = simdKernels[n-1]
	}
	if name == "" {
		return best, ""
	}
	if k := lookupKernel(name); k != nil {
		return k, ""
	}
	if kernelFamilies[name] {
		return best, fmt.Sprintf("gemm: %s=%q not available on this CPU; falling back to %q", KernelEnv, name, best.name)
	}
	return best, fmt.Sprintf("gemm: ignoring %s=%q (known kernels: %v)", KernelEnv, name, KernelNames())
}

// lookupKernel returns the named kernel, or nil.
func lookupKernel(name string) *kernel {
	if name == goKernel.name {
		return goKernel
	}
	for _, k := range simdKernels {
		if k.name == name {
			return k
		}
	}
	return nil
}

// KernelName reports the name of the micro-kernel the packed tier
// currently dispatches to ("go", "avx2", "neon", ...).
func KernelName() string { return activeKernel().name }

// KernelNames lists the micro-kernels selectable on this CPU, the portable
// "go" kernel first, then registered SIMD kernels in ascending preference
// order. The last entry is the default absent an override.
func KernelNames() []string {
	names := []string{goKernel.name}
	for _, k := range simdKernels {
		names = append(names, k.name)
	}
	return names
}

// asmKernelFunc is the common signature of the architecture assembly
// micro-kernels: pointers into the packed panels and C, with kc ≥ 1.
type asmKernelFunc func(pa, pb, c *float32, kc, ldc int64, store bool)

// adaptAsmKernel wraps an assembly kernel (whose k-loop requires at least
// one iteration) into a microKernelFunc, handling the kc == 0 store case
// — a BLAS beta=0 product with an empty shared dimension — in Go. The
// macro-kernel only calls micro-kernels on full mr×nr tiles, so the
// slices are non-empty whenever kc > 0.
func adaptAsmKernel(asm asmKernelFunc, mr, nr int) microKernelFunc {
	return func(pa, pb, c []float32, kc, ldc int, store bool) {
		if kc == 0 {
			if store {
				zeroTile(c, mr, nr, ldc)
			}
			return
		}
		asm(&pa[0], &pb[0], &c[0], int64(kc), int64(ldc), store)
	}
}

// zeroTile clears an mr×nr tile of c.
func zeroTile(c []float32, mr, nr, ldc int) {
	for r := 0; r < mr; r++ {
		row := c[r*ldc : r*ldc+nr]
		for i := range row {
			row[i] = 0
		}
	}
}

// SetKernel selects the named micro-kernel for all subsequent packed-tier
// calls and returns an error for names not selectable on this CPU.
//
// Switching kernels changes the packed-panel geometry: buffers produced by
// PrepackA/PrepackB under the previous kernel are invalid afterwards and
// must be re-packed (plan-level caches rebuild them on the next plan).
// SetKernel must not race in-flight GEMMs; it exists for harness ablations
// and tests that compare kernels within one process.
func SetKernel(name string) error {
	k := lookupKernel(name)
	if k == nil {
		return fmt.Errorf("gemm: unknown kernel %q (known: %v)", name, KernelNames())
	}
	active.Store(k)
	return nil
}
