package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Phase lengths that do not scale with -seconds.
const (
	// An untraced run sets up at least minSetups times, then until
	// setupBudget is spent or maxSetups is reached; setup_s is the median.
	// The budget gives a millisecond set-up (serve-http) enough samples.
	// Neither it nor the warm-up outlasts the timed phase of a short run.
	minSetups    = 5
	maxSetups    = 100
	setupBudget  = time.Second
	warmup       = 2 * time.Second
	maxReference = 3 * time.Second // untraced reference phase of a traced run
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one single-workload run measured: the result plus
// what the suite needs to judge it.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Samples is the number of correct ops behind the latency metrics;
	// P90Supported says whether ten of them lie beyond the p90.
	Samples      int     `json:"samples"`
	P90Supported bool    `json:"p90_supported"`
	CalibBefore  float64 `json:"calib_gflops_before"`
	CalibAfter   float64 `json:"calib_gflops_after"`
	Noisy        bool    `json:"noisy"`
	FirstError   string  `json:"first_error,omitempty"`
	// Extra holds the end-to-end metrics BENCHMARK.json cannot carry, see
	// suiteOnly.
	Extra map[string]metric `json:"extra,omitempty"`
	result
}

// phase is one closed-loop measurement over an instance.
type phase struct {
	tally
	latMs   []float64 // correct ops, all clients
	wall    time.Duration
	mallocs uint64
}

// runPhase drives every client of inst in a closed loop for d. Each op's
// output is checked after its timer stops; an op that errors or misses
// its reference counts as failed and contributes no latency.
func runPhase(inst instance, e *env, int8 bool, d time.Duration) phase {
	per := make([]phase, inst.clients())
	for c := range per {
		per[c].latMs = make([]float64, 0, 1<<18)
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	start := time.Now()
	settle := func() {}
	if s, ok := inst.(settler); ok {
		settle = s.settle
	}
	loop := func(c int) {
		p := &per[c]
		for k := 0; time.Since(start) < d; k++ {
			in := e.pool[(k*len(per)+c)%len(e.pool)]
			t0 := time.Now()
			out, err := inst.do(c, in.in)
			lat := time.Since(t0)
			if err == nil {
				err = checkOutput(out, in.want, int8)
			}
			p.add(err)
			if err == nil {
				p.latMs = append(p.latMs, ms(lat))
			}
			settle()
		}
	}
	if len(per) == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for c := range per {
			wg.Add(1)
			go func() {
				defer wg.Done()
				loop(c)
			}()
		}
		wg.Wait()
	}
	total := phase{wall: time.Since(start)}
	goruntime.ReadMemStats(&m1)
	total.mallocs = m1.Mallocs - m0.Mallocs
	for _, p := range per {
		total.latMs = append(total.latMs, p.latMs...)
		total.merge(p.tally)
	}
	return total
}

// runWorkload runs one workload in this process: set-up, warm-up, then
// either the timed phase (end-to-end metrics, tracing off) or the traced
// phase (per-layer metrics). End-to-end metrics never come from a traced
// run.
func runWorkload(sp *spec, w *workload, seed uint64, seconds float64, trace bool, outDir string) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e, err := newEnv(w, seed, scratch)
	if err != nil {
		return nil, err
	}
	timed := time.Duration(seconds * float64(time.Second))
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace}
	rep.CalibBefore = calibrate()

	// Set-up: build the model and session (and server / ONNX file) up to
	// the first correct output. An untraced run sets up several times and
	// reports the median; discarded set-ups are released first so they do
	// not pile up in the peak RSS.
	lo, hi := minSetups, maxSetups
	if trace {
		lo, hi = 1, 1
	}
	var inst instance
	var setups []float64
	for begin := time.Now(); len(setups) < hi && (len(setups) < lo || time.Since(begin) < min(setupBudget, timed)); {
		if inst != nil {
			inst.close()
			inst = nil
			goruntime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if inst, err = w.setup(w, e); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out, err := inst.do(0, e.pool[0].in)
		if err == nil {
			err = checkOutput(out, e.pool[0].want, w.int8)
		}
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("set-up: first output: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	runPhase(inst, e, w.int8, min(warmup, timed))
	planMB := float64(inst.planBytes()) / (1 << 20)

	var measured phase
	if !trace {
		measured = runPhase(inst, e, w.int8, timed)
		lat := sortedCopy(measured.latMs)
		rep.Samples = len(lat)
		rep.P90Supported = tailSupported(len(lat), 0.9)
		rep.Attempted, rep.Failed = measured.attempted, measured.failed
		values := map[string]float64{
			"latency_mode_ms": typical(lat),
			"setup_s":         median(setups),
			"plan_mem_mb":     planMB,
			"peak_rss_mb":     peakRSSMB(),
		}
		if rep.Metrics, err = withUnits(sp.EndToEnd, values); err != nil {
			return nil, err
		}
		rep.Extra = map[string]metric{
			"latency_p50_ms": {percentile(lat, 0.5), "ms"},
			"latency_p90_ms": {percentile(lat, 0.9), "ms"},
			"ops_per_s":      {opsPerSecond(measured), "1/s"},
			"failed_share":   {float64(measured.failed) / float64(max(measured.attempted, 1)), "ratio"},
			"allocs_per_op":  {allocsPerOp(measured), "count"},
		}
	} else {
		measured = runPhase(inst, e, w.int8, min(timed/4, maxReference))
		tr := newTracer()
		probe, err := measureLayers(w, e, inst, measured, tr, layerBudget, rep.CalibBefore)
		if err != nil {
			return nil, err
		}
		if err := writeChromeTrace(filepath.Join(outDir, w.name+".trace.json"), tr.spans); err != nil {
			return nil, err
		}
		rep.Samples = len(measured.latMs)
		lat := sortedCopy(measured.latMs)
		probe.out["latency_p50_ms"] = percentile(lat, 0.5)
		probe.out["latency_p90_ms"] = percentile(lat, 0.9)
		probe.out["ops_per_s"] = opsPerSecond(measured)
		probe.out["allocs_per_op"] = allocsPerOp(measured)
		measured.merge(probe.tally)
		rep.Attempted, rep.Failed = measured.attempted, measured.failed
		probe.out["host.calib_gflops"] = rep.CalibBefore
		if rep.Metrics, err = withUnits(sp.PerLayer, probe.out); err != nil {
			return nil, err
		}
	}
	if measured.err != nil {
		rep.FirstError = measured.err.Error()
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.CalibAfter = calibrate()
	rep.Noisy = noisy(rep.CalibBefore, rep.CalibAfter)
	return rep, nil
}

// opsPerSecond is correct ops ÷ wall time, all clients.
func opsPerSecond(p phase) float64 {
	return float64(len(p.latMs)) / p.wall.Seconds()
}

func allocsPerOp(p phase) float64 {
	return float64(p.mallocs) / float64(max(p.attempted, 1))
}
