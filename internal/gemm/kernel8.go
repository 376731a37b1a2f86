package gemm

// Int8 micro-kernel dispatch.
//
// The int8 tier mirrors the fp32 dispatch in kernel.go but carries its own
// kernel table: geometry, packed layout and instruction mix all differ
// (u8×s8 dot products accumulate in int32 along k-quads of 4). The portable
// pure-Go 4x8 kernel always exists and is the bit-exactness reference for
// the SIMD kernels; architecture files register an AVX2
// VPMADDUBSW+VPMADDWD 8x8 kernel and an AVX-512 VNNI (VPDPBUSD) 8x16
// kernel on amd64 when the CPU supports them.
//
// Selection honours the same ORPHEUS_GEMM_KERNEL variable as the fp32
// tier: a name known to this table ("go", "avx2", "vnni") pins the int8
// choice. A name from the int8 kernel families that this CPU cannot run
// (e.g. "vnni" on a pre-VNNI host) warns and falls through to the widest
// registered int8 kernel; names the int8 tier never implements (fp32-only
// spellings like "avx512", "neon") stay quiet here — the fp32 dispatch
// already warns once for fully unknown names.
//
// All three kernels produce bit-identical int32 accumulators for operands
// within the tier's contract (weights in [-63, 63], activations in
// [0, 255]): int32 addition is associative, and the clamp keeps every
// VPMADDUBSW intermediate inside int16, so the saturating instruction can
// never actually saturate. See int8.go for the contract.

import (
	"fmt"
	"os"
	"sync/atomic"
)

// microKernel8Func computes a full mr×nr int32 accumulator block from
// packed int8/uint8 panels: acc[r][cc] (+)= sum over k-quads q and lanes t
// of pa[(q*mr+r)*4+t] * pb[(q*nr+cc)*4+t]. kq is the number of k-quads
// (groups of 4 k values); ldc is the row stride of acc in elements; store
// overwrites acc instead of accumulating.
type microKernel8Func func(pa []int8, pb []byte, acc []int32, kq, ldc int, store bool)

// kernel8 bundles an int8 micro-kernel with its packing geometry.
type kernel8 struct {
	name   string
	mr, nr int
	micro  microKernel8Func
}

// Int8 micro-tile geometry bounds; shared scratch is sized for the largest
// registered kernel.
const (
	maxMR8 = 8
	maxNR8 = 16
)

// go8Kernel is the portable pure-Go int8 micro-kernel; always selectable
// as "go" and the correctness reference for the SIMD kernels.
var go8Kernel = &kernel8{name: "go", mr: 4, nr: 8, micro: microKernel8Go}

// simd8Kernels holds the int8 architecture kernels usable on this CPU, in
// ascending preference order.
var simd8Kernels []*kernel8

// registerKernel8 adds an int8 SIMD kernel to the dispatch table. Called
// only from package init.
func registerKernel8(k *kernel8) {
	if k.mr > maxMR8 || k.nr > maxNR8 {
		panicf("gemm: int8 kernel %s tile %dx%d exceeds max %dx%d", k.name, k.mr, k.nr, maxMR8, maxNR8)
	}
	if mcBlock%k.mr != 0 || ncMin%k.nr != 0 {
		panicf("gemm: int8 kernel %s tile %dx%d does not divide %d-row M-tiles and %d-column blocks",
			k.name, k.mr, k.nr, mcBlock, ncMin)
	}
	if !int8Families[k.name] {
		panicf("gemm: int8 kernel %s missing from int8Families", k.name)
	}
	simd8Kernels = append(simd8Kernels, k)
}

// active8 is the int8 kernel all packing and accumulation uses, resolved
// lazily like the fp32 active kernel.
var active8 atomic.Pointer[kernel8]

// activeKernel8 returns the int8 kernel in effect, resolving the default
// on first use.
func activeKernel8() *kernel8 {
	if k := active8.Load(); k != nil {
		return k
	}
	active8.CompareAndSwap(nil, defaultKernel8())
	return active8.Load()
}

// int8Families names every int8 kernel the dispatch layer knows about on
// any architecture — the set for which an unavailable-on-this-CPU request
// warns instead of being silently ignored.
var int8Families = map[string]bool{
	"go":   true,
	"avx2": true,
	"vnni": true,
}

// defaultKernel8 applies the selection order documented at the top of this
// file.
func defaultKernel8() *kernel8 {
	k, warn := resolveKernel8(os.Getenv(KernelEnv))
	if warn != "" {
		fmt.Fprintln(os.Stderr, warn)
	}
	return k
}

// resolveKernel8 maps an ORPHEUS_GEMM_KERNEL value to the int8 kernel to
// use plus a warning to emit (empty when the request was honoured, absent,
// or names a kernel outside the int8 families).
func resolveKernel8(name string) (k *kernel8, warn string) {
	best := go8Kernel
	if n := len(simd8Kernels); n > 0 {
		best = simd8Kernels[n-1]
	}
	if name == "" {
		return best, ""
	}
	if k := lookupKernel8(name); k != nil {
		return k, ""
	}
	if int8Families[name] {
		return best, fmt.Sprintf("gemm: int8 tier: %s=%q not available on this CPU; falling back to %q", KernelEnv, name, best.name)
	}
	// Unknown to the int8 tier; the fp32 dispatch warns for fully unknown
	// names, so stay quiet and use the best registered kernel.
	return best, ""
}

// lookupKernel8 returns the named int8 kernel, or nil.
func lookupKernel8(name string) *kernel8 {
	if name == go8Kernel.name {
		return go8Kernel
	}
	for _, k := range simd8Kernels {
		if k.name == name {
			return k
		}
	}
	return nil
}

// Kernel8Name reports the name of the int8 micro-kernel the quantized tier
// currently dispatches to ("go", "avx2", "vnni", ...).
func Kernel8Name() string { return activeKernel8().name }

// Kernel8Names lists the int8 micro-kernels selectable on this CPU, the
// portable "go" kernel first, then registered SIMD kernels in ascending
// preference order. The last entry is the default absent an override.
func Kernel8Names() []string {
	names := []string{go8Kernel.name}
	for _, k := range simd8Kernels {
		names = append(names, k.name)
	}
	return names
}

// SetKernel8 selects the named int8 micro-kernel for all subsequent
// quantized-tier calls. Like SetKernel, switching invalidates buffers
// produced by earlier PrepackAInt8 calls (the panel layout bakes in mr)
// and must not race in-flight GEMMs.
func SetKernel8(name string) error {
	k := lookupKernel8(name)
	if k == nil {
		return fmt.Errorf("gemm: unknown int8 kernel %q (known: %v)", name, Kernel8Names())
	}
	active8.Store(k)
	return nil
}

// asmKernel8Func is the common signature of the architecture int8 assembly
// micro-kernels: pointers into the packed panels and the int32 accumulator
// tile, with kq ≥ 1.
type asmKernel8Func func(pa *int8, pb *byte, acc *int32, kq, ldc int64, store bool)

// adaptAsmKernel8 wraps an int8 assembly kernel (whose k-loop requires at
// least one iteration) into a microKernel8Func, handling kq == 0 in Go.
func adaptAsmKernel8(asm asmKernel8Func, mr, nr int) microKernel8Func {
	return func(pa []int8, pb []byte, acc []int32, kq, ldc int, store bool) {
		if kq == 0 {
			if store {
				zeroTile32(acc, mr, nr, ldc)
			}
			return
		}
		asm(&pa[0], &pb[0], &acc[0], int64(kq), int64(ldc), store)
	}
}

// zeroTile32 clears an mr×nr tile of acc.
func zeroTile32(acc []int32, mr, nr, ldc int) {
	for r := 0; r < mr; r++ {
		row := acc[r*ldc : r*ldc+nr]
		for i := range row {
			row[i] = 0
		}
	}
}
