package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/device"
	"orpheus/internal/graph"
	"orpheus/internal/runtime"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// Mode selects how times are obtained.
type Mode string

// Experiment execution modes. Sim evaluates the Cortex-A73 cost model
// (instant, reproduces the paper's board); Measure times real inference on
// the host CPU; Both reports the two side by side.
const (
	ModeSim     Mode = "sim"
	ModeMeasure Mode = "measure"
	ModeBoth    Mode = "both"
)

// Config controls an experiment run.
type Config struct {
	// Ctx cancels measured runs between plan steps (default
	// context.Background()); cancellation surfaces as the experiment's
	// error.
	Ctx context.Context
	// Mode selects simulated, measured, or both (default sim).
	Mode Mode
	// Warmup and Reps control measured timing (defaults 1 and 3).
	Warmup, Reps int
	// Workers is the thread count for measured runs (default 1, matching
	// the paper's single-core setup).
	Workers int
	// Models restricts the model set (default: all five Figure 2 models).
	Models []string
	// Device is the simulated target (default HiKey 970).
	Device *device.Device
	// Shards points the "shard" experiment at externally started
	// orpheus-shard stage processes (orpheus-bench -shards
	// host1:port,host2:port,... in pipeline order) instead of spinning
	// loopback stages in-process.
	Shards []string
}

func (c *Config) fill() {
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	if c.Mode == "" {
		c.Mode = ModeSim
	}
	if c.Warmup <= 0 {
		c.Warmup = 1
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if len(c.Models) == 0 {
		c.Models = zoo.Names()
	}
	if c.Device == nil {
		c.Device = device.HiKey970()
	}
}

// Experiment is one reproducible result from the paper or an ablation.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg *Config) (*Report, error)
}

var experiments = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := experiments[e.ID]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment %q", e.ID))
	}
	experiments[e.ID] = e
}

// ByID returns the experiment with the given id.
func ByID(id string) (*Experiment, error) {
	e, ok := experiments[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (known: %v)", id, IDs())
	}
	return e, nil
}

// IDs lists registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(experiments))
	for id := range experiments {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns every experiment sorted by id.
func All() []*Experiment {
	var out []*Experiment
	for _, id := range IDs() {
		out = append(out, experiments[id])
	}
	return out
}

// modelResult is one (model, backend) timing in milliseconds.
type modelResult struct {
	model, backendName string
	simMs              float64
	measuredMs         float64
	excluded           string // non-empty reason when n/a
}

// runModelBackend obtains timings for one model on one backend.
func runModelBackend(cfg *Config, g *graph.Graph, modelName string, b *backend.Backend) modelResult {
	res := modelResult{model: modelName, backendName: b.Name}
	if b.SupportsModel != nil {
		if err := b.SupportsModel(modelName); err != nil {
			res.excluded = err.Error()
			return res
		}
	}
	plan, err := b.PrepareWith(g, backend.PrepareOpts{Workers: cfg.Workers})
	if err != nil {
		res.excluded = err.Error()
		return res
	}
	if cfg.Mode == ModeSim || cfg.Mode == ModeBoth {
		res.simMs = float64(cfg.Device.EstimatePlan(plan, time.Duration(b.SimDispatchNs))) / 1e6
	}
	if cfg.Mode == ModeMeasure || cfg.Mode == ModeBoth {
		sess := runtime.NewSession(plan)
		x := tensor.Rand(tensor.NewRNG(tensor.SeedFromString(modelName)), -1, 1, g.Inputs[0].Shape...)
		stats, err := runtime.Measure(cfg.Ctx, sess, map[string]*tensor.Tensor{g.Inputs[0].Name: x}, cfg.Warmup, cfg.Reps)
		if err != nil {
			res.excluded = err.Error()
			return res
		}
		res.measuredMs = float64(stats.Median) / 1e6
	}
	return res
}

// ms returns the primary timing for ranking (simulated when available).
func (r modelResult) ms(mode Mode) float64 {
	if mode == ModeMeasure {
		return r.measuredMs
	}
	return r.simMs
}
