package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteReport is what `bench -json` writes: every workload's end-to-end
// and per-layer metrics from one command, on a fingerprinted host.
type suiteReport struct {
	Schema    string          `json:"schema"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Host      hostInfo        `json:"host"`
	Workloads []suiteWorkload `json:"workloads"`
}

// suiteWorkload joins a workload's untraced and traced runs.
type suiteWorkload struct {
	Name string `json:"name"`
	// Noisy is set when the calibration GEMM before and after either run
	// differs by more than 10 %: -compare then reports unresolved.
	Noisy        bool              `json:"noisy"`
	Correct      bool              `json:"correct"`
	Samples      int               `json:"samples"`
	P90Supported bool              `json:"p90_supported"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Flags        []string          `json:"flags,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer"`
}

// runSuite runs every workload the code has twice — untraced, then
// traced — each in a fresh child process, so set-up time and peak RSS are
// the workload's own. That is one workload more than BENCHMARK.json lists
// for the driver, whose time limit has no room for cold-start.
func runSuite(seed uint64, seconds float64, outDir, specPath, jsonPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	suite := suiteReport{Schema: "orpheus-bench/1", Seed: seed, Seconds: seconds, Host: readHost()}
	fmt.Printf("host: %s, %d cpus, %s, gemm %s / %s, commit %s, calibration %.2f GFLOP/s\n",
		suite.Host.CPU, suite.Host.NProc, suite.Host.Go, suite.Host.GemmKernel, suite.Host.GemmKernel8, suite.Host.Commit, suite.Host.CalibGflops)
	for _, w := range workloads {
		var reps [2]report
		for trace := range reps {
			reportPath := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.report.json", w.name, trace))
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-out", outDir, "-spec", specPath, "-report", reportPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s, trace %d: %w", w.name, trace, err)
			}
			if err := readJSON(reportPath, &reps[trace]); err != nil {
				return err
			}
		}
		timed, traced := reps[0], reps[1]
		sw := suiteWorkload{Name: w.name,
			Noisy:   timed.Noisy || traced.Noisy,
			Correct: timed.Correct && traced.Correct,
			Samples: timed.Samples, P90Supported: timed.P90Supported,
			Attempted: timed.Attempted + traced.Attempted, Failed: timed.Failed + traced.Failed,
			EndToEnd: timed.Metrics, PerLayer: traced.Metrics}
		for name, m := range timed.Extra {
			sw.EndToEnd[name] = m
		}
		if r := sw.PerLayer["runtime.layer_sum_ratio"].Value; r < 0.9 || r > 1.1 {
			sw.Flags = append(sw.Flags, fmt.Sprintf("runtime.layer_sum_ratio %.3f outside [0.9, 1.1]: layers do not add up", r))
		}
		if !sw.P90Supported {
			sw.Flags = append(sw.Flags, fmt.Sprintf("%d samples leave fewer than ten beyond latency_p90_ms", sw.Samples))
		}
		for _, f := range sw.Flags {
			fmt.Printf("  flag: %s\n", f)
		}
		suite.Workloads = append(suite.Workloads, sw)
	}
	if jsonPath == "" {
		return nil
	}
	return writeJSON(jsonPath, suite)
}

// suiteOnly are the end-to-end metrics the suite report carries but
// BENCHMARK.json's end_to_end list cannot, each with its own rule for "b
// is worse than a". failed_share and allocs_per_op are 0 on a healthy run,
// where a relative bound means nothing. latency_p50_ms, latency_p90_ms and
// ops_per_s land wherever the reference container's slow spells do: the
// spread of ten equal runs reaches 27–28 % of their median, above the
// largest bound the list allows.
var suiteOnly = []struct {
	name  string
	worse func(a, b float64) bool
}{
	{"latency_p50_ms", func(a, b float64) bool { return b > 1.15*a }},
	{"latency_p90_ms", func(a, b float64) bool { return b > 1.25*a }},
	{"ops_per_s", func(a, b float64) bool { return b < 0.8*a }},
	{"failed_share", func(a, b float64) bool { return b > a }},
	{"allocs_per_op", func(a, b float64) bool { return b > a+math.Max(1, 0.02*a) }},
}

// worseBy is how far b is worse than a, as a share of a: positive when b
// regressed in the metric's direction.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports judges b against a: every end-to-end metric of every
// workload against its bound from BENCHMARK.json. One row per workload.
// A workload whose runs were noisy, or two reports from hosts whose
// calibration differs by more than 10 %, are unresolved, not unchanged.
func compareReports(sp *spec, pathA, pathB string) error {
	var a, b suiteReport
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	hostsDiffer := noisy(a.Host.CalibGflops, b.Host.CalibGflops)
	fmt.Printf("host.calib_gflops %.2f vs %.2f", a.Host.CalibGflops, b.Host.CalibGflops)
	if hostsDiffer {
		fmt.Print(": differ by more than 10 %, nothing can be resolved")
	}
	fmt.Println()
	byName := func(r suiteReport) map[string]suiteWorkload {
		m := map[string]suiteWorkload{}
		for _, w := range r.Workloads {
			m[w.Name] = w
		}
		return m
	}
	wa, wb := byName(a), byName(b)
	regressions := 0
	for _, w := range workloads {
		x, okA := wa[w.name]
		y, okB := wb[w.name]
		if !okA || !okB {
			return fmt.Errorf("workload %s is missing from a report", w.name)
		}
		var cells, worse []string
		for _, m := range sp.EndToEnd {
			share := worseBy(x.EndToEnd[m.Name].Value, y.EndToEnd[m.Name].Value, m.Better)
			cells = append(cells, fmt.Sprintf("%s %+.1f%%", m.Name, 100*share))
			if share > m.Bound {
				worse = append(worse, m.Name)
			}
		}
		for _, m := range suiteOnly {
			va, vb := x.EndToEnd[m.name].Value, y.EndToEnd[m.name].Value
			cells = append(cells, fmt.Sprintf("%s %.4g→%.4g", m.name, va, vb))
			if m.worse(va, vb) {
				worse = append(worse, m.name)
			}
		}
		verdict := "ok"
		switch {
		case hostsDiffer || x.Noisy || y.Noisy:
			verdict = "unresolved"
		case len(worse) > 0:
			verdict = fmt.Sprintf("REGRESSION %v", worse)
			regressions++
		}
		fmt.Printf("%-15s %-12s", w.name, verdict)
		for _, c := range cells {
			fmt.Printf("  %s", c)
		}
		fmt.Println()
	}
	if regressions > 0 {
		return fmt.Errorf("%d workloads regressed beyond their bounds", regressions)
	}
	return nil
}
