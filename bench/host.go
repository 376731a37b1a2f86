package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"orpheus/internal/gemm"
	"orpheus/internal/tensor"
)

// hostInfo fingerprints the machine and build a result came from, so runs
// on different containers are normalised, not silently compared.
type hostInfo struct {
	CPU         string   `json:"cpu"`
	Features    []string `json:"features"`
	NProc       int      `json:"nproc"`
	Go          string   `json:"go"`
	GemmKernel  string   `json:"gemm_kernel"`
	GemmKernel8 string   `json:"gemm_kernel8"`
	Commit      string   `json:"commit"`
	CalibGflops float64  `json:"calib_gflops"`
}

// simdFeatures are the /proc/cpuinfo flags that decide kernel dispatch.
var simdFeatures = map[string]bool{
	"fma": true, "avx": true, "avx2": true, "avx512f": true, "avx512bw": true, "avx512vl": true,
	"avx512_vnni": true, "avx_vnni": true, "asimd": true, "asimddp": true,
}

func readHost() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(),
		GemmKernel: gemm.KernelName(), GemmKernel8: gemm.Kernel8Name(), Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			key, val, _ := strings.Cut(line, ":")
			switch strings.TrimSpace(key) {
			case "model name":
				h.CPU = strings.TrimSpace(val)
			case "flags", "Features":
				for _, f := range strings.Fields(val) {
					if simdFeatures[f] {
						h.Features = append(h.Features, f)
					}
				}
			}
			if h.CPU != "unknown" && h.Features != nil {
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.CalibGflops = calibrate()
	return h
}

// calibDim is the side of the square calibration GEMM.
const calibDim = 384

// calibrate returns the best of five single-thread packed fp32 GEMMs at
// calibDim³, in GFLOP/s: the machine speed this process sees right now.
// Taken before and after a workload it is the noise canary.
func calibrate() float64 {
	r := tensor.NewRNG(1)
	a := tensor.Rand(r, -1, 1, calibDim, calibDim).Data()
	b := tensor.Rand(r, -1, 1, calibDim, calibDim).Data()
	c := make([]float32, calibDim*calibDim)
	var ctx gemm.Context
	// The first GEMMs after an idle spell run below the machine's speed
	// (clock and vector-unit ramp-up): two untimed runs come first.
	best := time.Duration(1 << 62)
	for i := -2; i < 5; i++ {
		t0 := time.Now()
		ctx.PackedStore(a, b, c, calibDim, calibDim, calibDim)
		if i >= 0 {
			best = min(best, time.Since(t0))
		}
	}
	return 2 * calibDim * calibDim * calibDim / float64(best.Nanoseconds())
}

// noisy reports whether two calibrations differ by more than 10 %.
func noisy(before, after float64) bool {
	return after < 0.9*before || after > 1.1*before
}

// peakRSSMB returns the process's VmHWM in MB, or 0 when unavailable.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(rest, "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
