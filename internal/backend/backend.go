package backend

import (
	"fmt"
	"sort"
	"strings"

	"orpheus/internal/graph"
	"orpheus/internal/passes"
	"orpheus/internal/runtime"
)

// Backend bundles a kernel policy with runtime behaviour, emulating one
// framework from the paper's evaluation (or a native Orpheus
// configuration).
type Backend struct {
	// Name is the identifier used by the harness and CLI ("orpheus",
	// "tvm-sim", ...).
	Name string
	// Paper is the framework this backend stands in for, as labelled in
	// Figure 2 ("Orpheus", "TVM", "PyTorch", ...).
	Paper string
	// Description explains the emulation in one line.
	Description string

	// NewPolicy creates a fresh kernel-selection policy (fresh so that
	// stateful policies like the auto-tuner do not leak between models).
	// int8 is the plan's quantized-tier flag (PrepareOpts.Int8); the
	// package comment states what every policy does with it.
	NewPolicy func(int8 bool) runtime.Policy

	// Optimize applies the graph-simplification pipeline before running
	// (graph frameworks do; eager frameworks such as PyTorch and DarkNet
	// do not).
	Optimize bool
	// NoBufferReuse models per-call allocation (runtime.Options).
	NoBufferReuse bool
	// ForceAllCores pins the worker count to every available core and
	// refuses single-threaded operation (the paper's TF-Lite complaint).
	ForceAllCores bool
	// SupportsModel returns nil if the backend can run the named model
	// (DarkNet only ships the ResNets, per the paper).
	SupportsModel func(model string) error
	// SimDispatchNs is the per-operator dispatch overhead, in nanoseconds,
	// charged by the device cost model: compiled runtimes dispatch in a
	// couple of microseconds, eager frameworks pay an order of magnitude
	// more per call.
	SimDispatchNs float64
}

// PrepareOpts parameterises PrepareWith.
type PrepareOpts struct {
	// Workers is the kernel goroutine budget; <= 0 means 1.
	Workers int
	// MaxBatch sizes the plan's arena for runtime batching; <= 0 means 1.
	MaxBatch int
	// Int8 enables the quantized execution tier. For the auto-tuning
	// backend the tuner arbitrates fp32 vs int8 per layer on measured
	// time; for fixed-policy backends the quantized kernel is used
	// wherever one supports the layer.
	Int8 bool
	// Layout selects the tensor layout the plan executes in: "" or
	// "nchw" keeps the importer's NCHW convention, "nhwc" runs the
	// layout-assignment pass (channel-innermost kernels, transposes only
	// at unavoidable frontiers). "nhwc" requires an optimising backend —
	// the conversion is a pipeline pass.
	Layout string
	// LayoutStats, when non-nil, receives the ConvertLayout counters for
	// Layout "nhwc" plans (the inspect tool and the layout experiment
	// read them).
	LayoutStats *passes.LayoutStats
}

// PrepareWith optimises (a clone of) g according to the backend's rules
// and compiles it with the given options. It is the one way a backend
// turns a graph into a plan, and its runtime.Compile call — asking a
// fresh NewPolicy(o.Int8) once per node — the one place the plan's
// kernels are decided; sessions never revisit the choice.
func (b *Backend) PrepareWith(g *graph.Graph, o PrepareOpts) (*runtime.Plan, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if b.ForceAllCores && o.Workers == 1 {
		return nil, fmt.Errorf("backend %s: cannot select a single thread (the API always uses the maximum)", b.Name)
	}
	switch o.Layout {
	case "", "nchw", "nhwc":
	default:
		return nil, fmt.Errorf("backend %s: unknown layout %q (want nchw or nhwc)", b.Name, o.Layout)
	}
	if o.Layout == "nhwc" && !b.Optimize {
		return nil, fmt.Errorf("backend %s: layout nhwc needs the optimisation pipeline, which this backend disables", b.Name)
	}
	work := g.Clone()
	if err := work.Finalize(); err != nil {
		return nil, err
	}
	if b.Optimize {
		pipeline := passes.Default()
		if o.Layout == "nhwc" {
			pipeline = passes.LayoutPipeline(o.LayoutStats)
		}
		if _, err := pipeline.Run(work); err != nil {
			return nil, err
		}
	}
	return runtime.Compile(work, runtime.Options{
		Policy:        b.NewPolicy(o.Int8),
		Workers:       o.Workers,
		MaxBatch:      o.MaxBatch,
		NoBufferReuse: b.NoBufferReuse,
	})
}

var registry = map[string]*Backend{}

// Register adds a backend; duplicate names panic.
func Register(b *Backend) {
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("backend: duplicate backend %q", b.Name))
	}
	registry[b.Name] = b
}

// ByName returns the named backend.
func ByName(name string) (*Backend, error) {
	b, ok := registry[name]
	if !ok {
		names := Names()
		return nil, fmt.Errorf("backend: unknown backend %q (known: %s)", name, strings.Join(names, ", "))
	}
	return b, nil
}

// Names lists registered backends sorted by name.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(&Backend{
		Name:        "orpheus",
		Paper:       "Orpheus",
		Description: "native: GEMM (im2col+packed) convolution, dedicated depthwise kernel, fused graph, arena memory",
		NewPolicy: func(int8 bool) runtime.Policy {
			// The NHWC kernels only support nodes the layout pass marked,
			// so listing them first is a no-op for NCHW plans.
			return &PreferencePolicy{PolicyName: "orpheus", Prefs: map[string][]string{
				"Conv":  {"conv.depthwise_nhwc", "conv.im2col_nhwc", "conv.depthwise", "conv.im2col"},
				"Dense": {"dense.gemm"},
			}, int8: int8}
		},
		Optimize:      true,
		SimDispatchNs: 2000,
	})
	Register(&Backend{
		Name:          "orpheus-heuristic",
		Paper:         "Orpheus (heuristic)",
		Description:   "native with size-based conv algorithm choice (spatial pack below the GEMM crossover)",
		NewPolicy:     func(int8 bool) runtime.Policy { return &HeuristicPolicy{int8: int8} },
		Optimize:      true,
		SimDispatchNs: 2000,
	})
	Register(&Backend{
		Name:          "orpheus-tuned",
		Paper:         "Orpheus (tuned)",
		Description:   "native with per-layer empirical auto-tuning over all registered kernels",
		NewPolicy:     func(int8 bool) runtime.Policy { return NewAutoTunePolicy(int8) },
		Optimize:      true,
		SimDispatchNs: 2000,
	})
	Register(&Backend{
		Name:        "tvm-sim",
		Paper:       "TVM",
		Description: "TVM emulation: spatial-pack convolution schedule, optimised graph",
		NewPolicy: func(int8 bool) runtime.Policy {
			return &PreferencePolicy{PolicyName: "tvm-sim", Prefs: map[string][]string{
				"Conv":  {"conv.depthwise", "conv.spatialpack", "conv.im2col"},
				"Dense": {"dense.gemm"},
			}, int8: int8}
		},
		Optimize:      true,
		SimDispatchNs: 1500,
	})
	Register(&Backend{
		Name:        "torch-sim",
		Paper:       "PyTorch",
		Description: "PyTorch-eager emulation: explicit-unfold GEMM convolution, per-group im2col depthwise, per-call allocation and weight packing, no graph fusion",
		NewPolicy: func(int8 bool) runtime.Policy {
			return &PreferencePolicy{PolicyName: "torch-sim", Prefs: map[string][]string{
				"Conv":  {"conv.group_im2col", "conv.im2col_explicit"},
				"Dense": {"dense.gemm"},
			}, int8: int8}
		},
		Optimize:      false,
		NoBufferReuse: true,
		SimDispatchNs: 30000,
	})
	Register(&Backend{
		Name:        "darknet-sim",
		Paper:       "DarkNet",
		Description: "DarkNet emulation: direct convolution, naive dense, no graph optimisation; ResNets only",
		NewPolicy: func(int8 bool) runtime.Policy {
			return &PreferencePolicy{PolicyName: "darknet-sim", Prefs: map[string][]string{
				"Conv":  {"conv.direct"},
				"Dense": {"dense.naive"},
			}, int8: int8}
		},
		Optimize:      false,
		SimDispatchNs: 4000,
		SupportsModel: func(model string) error {
			if !strings.HasPrefix(model, "resnet") {
				return fmt.Errorf("darknet-sim: model %s not available (paper: only the ResNet models were available)", model)
			}
			return nil
		},
	})
	Register(&Backend{
		Name:        "tflite-sim",
		Paper:       "TF-Lite",
		Description: "TF-Lite emulation: GEMM convolution but the API always selects the maximum thread count",
		NewPolicy: func(int8 bool) runtime.Policy {
			return &PreferencePolicy{PolicyName: "tflite-sim", Prefs: map[string][]string{"Conv": {"conv.depthwise", "conv.im2col"}, "Dense": {"dense.gemm"}}, int8: int8}
		},
		Optimize:      true,
		ForceAllCores: true,
		SimDispatchNs: 3000,
		SupportsModel: func(model string) error {
			if strings.HasPrefix(model, "resnet") {
				return fmt.Errorf("tflite-sim: model %s not available (paper: all models excepting ResNets were available)", model)
			}
			return nil
		},
	})
}
