// Command bench is the one benchmark every performance claim in this
// repository is measured with. See README.md in this directory.
//
//	go run ./bench -seed 1 -json out.json            all workloads, one report
//	go run ./bench -workload dense-fp32 -trace 0     one workload, end-to-end metrics
//	go run ./bench -workload dense-fp32 -trace 1     one workload, per-layer metrics
//	go run ./bench -compare a.json b.json            judge two reports by the bounds
//	go run ./bench -regen-golden                     recompute bench/golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process and print its result as the last line")
		seed         = flag.Uint64("seed", 1, "generates the input pool and the request order")
		seconds      = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 measures end-to-end metrics with tracing off, 1 measures per-layer metrics and writes a trace")
		outDir       = flag.String("out", ".bench_out", "directory for traces and scratch files")
		reportPath   = flag.String("report", "", "with -workload: also write the full report to this file")
		jsonPath     = flag.String("json", "", "without -workload: write the suite report to this file")
		specPath     = flag.String("spec", "BENCHMARK.json", "the benchmark's contract: workloads, metrics, units, bounds")
		compare      = flag.Bool("compare", false, "compare two suite reports: bench -compare a.json b.json")
		regen        = flag.Bool("regen-golden", false, "recompute bench/golden/*.json on the reference kernels")
	)
	flag.Parse()
	err := func() error {
		if *regen {
			return regenGolden("bench/golden")
		}
		sp, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		if *seconds <= 0 {
			*seconds = float64(sp.RunSeconds)
		}
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare wants two suite reports")
			}
			return compareReports(sp, flag.Arg(0), flag.Arg(1))
		case *workloadName == "":
			return runSuite(*seed, *seconds, *outDir, *specPath, *jsonPath)
		case *trace != 0 && *trace != 1:
			return fmt.Errorf("-trace is 0 or 1")
		}
		return runOne(sp, *workloadName, *seed, *seconds, *trace == 1, *outDir, *reportPath)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in this process. The last line of its
// standard output is the result the benchmark driver reads.
func runOne(sp *spec, name string, seed uint64, seconds float64, trace bool, outDir, reportPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	rep, err := runWorkload(sp, w, seed, seconds, trace, outDir)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	printReport(rep)
	if reportPath != "" {
		if err := writeJSON(reportPath, rep); err != nil {
			return err
		}
	}
	last, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// printReport prints every metric by name with its unit.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  trace %v  samples %d  attempted %d  failed %d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Samples, rep.Attempted, rep.Failed)
	printMetrics(rep.Metrics)
	printMetrics(rep.Extra)
	if !rep.Trace && !rep.P90Supported {
		fmt.Printf("  note: %d samples leave fewer than ten beyond the p90\n", rep.Samples)
	}
	if rep.FirstError != "" {
		fmt.Printf("  first failure: %s\n", rep.FirstError)
	}
	fmt.Printf("  host.calib_gflops before %.2f after %.2f noisy %v\n", rep.CalibBefore, rep.CalibAfter, rep.Noisy)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
