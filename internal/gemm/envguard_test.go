package gemm

import (
	"strings"
	"testing"
)

// The ORPHEUS_GEMM_KERNEL guard, over both registries: a requested kernel
// that exists on this CPU is honoured silently; a family of the tier that
// is not selectable here warns and falls through to the default. Other
// names are typos to the fp32 tier, which ignores them with a
// GODEBUG-style warning, while the int8 tier stays quiet — for it the
// fp32-only spellings are not typos, and the fp32 tier already warned.
func TestResolveKernelEnvGuard(t *testing.T) {
	for _, tc := range []struct {
		tier string
		run  func(t *testing.T)
	}{
		// vnni is an int8-only family; fp32 treats it as a typo.
		{"fp32", func(t *testing.T) { checkEnvGuard(t, fp32Kernels, []string{"vnni", "no-such-kernel"}, true) }},
		// avx512 and neon are fp32-only families.
		{"int8", func(t *testing.T) { checkEnvGuard(t, int8Kernels, []string{"avx512", "neon", "no-such-kernel"}, false) }},
	} {
		t.Run(tc.tier, tc.run)
	}
}

// checkEnvGuard holds one registry to the guard. unknown are names outside
// its families; warns says whether they draw the typo warning.
func checkEnvGuard[A, B, C any](t *testing.T, r *registry[A, B, C], unknown []string, warns bool) {
	def, warn := r.resolve("")
	if warn != "" {
		t.Fatalf("empty env produced warning %q", warn)
	}
	for _, n := range r.names() {
		if k, warn := r.resolve(n); k.name != n || warn != "" {
			t.Fatalf("resolve(%q) = %q, warn %q, want it silently", n, k.name, warn)
		}
	}
	// A family this CPU cannot run: simulate by truncating the registry to
	// the go kernel, so every other family is unavailable — which keeps the
	// test meaningful on hosts with full SIMD support.
	saved := r.kernels
	r.kernels = saved[:1]
	defer func() { r.kernels = saved }()
	for fam := range r.families {
		if fam == "go" {
			continue
		}
		k, warn := r.resolve(fam)
		if k.name != "go" {
			t.Fatalf("resolve(%q) with empty registry selected %q, want fallback \"go\"", fam, k.name)
		}
		if !strings.Contains(warn, "not available") {
			t.Fatalf("resolve(%q) warning %q, want unavailable-family message", fam, warn)
		}
	}
	r.kernels = saved
	for _, n := range unknown {
		k, warn := r.resolve(n)
		if k.name != def.name {
			t.Fatalf("unknown name %q changed selection to %q", n, k.name)
		}
		if !warns && warn != "" {
			t.Fatalf("unknown name %q warned %q, want silence", n, warn)
		}
		if warns && (!strings.Contains(warn, "ignoring") || !strings.Contains(warn, KernelEnv)) {
			t.Fatalf("unknown name %q warned %q, want ignoring+%s", n, warn, KernelEnv)
		}
	}
}

// TestPinnedAVX2IsTheAVX2Default holds each tier to one kernel per
// instruction set: no name maps to two kernels, and on a host with AVX2
// the kernel ORPHEUS_GEMM_KERNEL=avx2 pins is the one an AVX2-only host
// selects by default — this host's registry with the AVX-512 kernel left
// out. A CI lane that pins "avx2" then runs production's AVX2 kernels.
func TestPinnedAVX2IsTheAVX2Default(t *testing.T) {
	t.Run("fp32", func(t *testing.T) { checkAVX2Default(t, fp32Kernels, "avx512") })
	t.Run("int8", func(t *testing.T) { checkAVX2Default(t, int8Kernels, "vnni") })
}

// checkAVX2Default holds one registry to TestPinnedAVX2IsTheAVX2Default;
// avx512 names the tier's AVX-512 kernel.
func checkAVX2Default[A, B, C any](t *testing.T, r *registry[A, B, C], avx512 string) {
	seen := map[string]bool{}
	for _, k := range r.kernels {
		if seen[k.name] {
			t.Fatalf("%skernel name %q maps to two kernels", r.tier, k.name)
		}
		seen[k.name] = true
	}
	pinned := r.lookup("avx2")
	if pinned == nil {
		t.Skip("no AVX2 kernel on this host")
	}
	saved := r.kernels
	defer func() { r.kernels = saved }()
	var avx2Host []*kernel[A, B, C]
	for _, k := range saved {
		if k.name != avx512 {
			avx2Host = append(avx2Host, k)
		}
	}
	r.kernels = avx2Host
	if def, _ := r.resolve(""); def != pinned {
		t.Fatalf("%skernel avx2 pins a %dx%d tile, but an AVX2-only host selects %s, a %dx%d tile",
			r.tier, pinned.mr, pinned.nr, def.name, def.mr, def.nr)
	}
}
