package harness

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"orpheus/internal/backend"
	"orpheus/internal/runtime"
	"orpheus/internal/shard"
	"orpheus/internal/tensor"
	"orpheus/internal/zoo"
)

// E6 "shard": pipeline-parallel sharded inference. One zoo model is
// split at its min-transfer cut points and run as a chain of stage
// servers; the experiment reports, per topology, the sequential (depth
// 1) latency, the pipelined (depth >= nstages) throughput, and the
// worst output divergence against the single-process baseline — which
// must be exactly zero for fp32 boundaries. Topologies run in-process
// on loopback by default; -shards host1,host2,... points the driver at
// externally started orpheus-shard processes instead, turning the same
// experiment into the multi-machine harness.
func init() {
	register(&Experiment{ID: "shard", Title: "E6: pipeline-parallel sharded inference — latency, overlap, equality", Run: runShard})
}

// Shard-experiment sizing: enough requests to reach the pipeline's
// steady state (the first nstages requests only fill it), few enough to
// keep the sweep quick on one core.
const (
	shardWarmup   = 2
	shardSeqReqs  = 8
	shardPipeReqs = 16
)

// shardModel picks the experiment's model: the explicit single -models
// restriction if there is one, else mobilenet-v1 (cheap enough for a
// loopback sweep, deep enough to cut three ways).
func shardModel(cfg *Config) string {
	if len(cfg.Models) == 1 {
		return cfg.Models[0]
	}
	return "mobilenet-v1"
}

func runShard(cfg *Config) (*Report, error) {
	cfg.fill()
	model := shardModel(cfg)
	rep := &Report{ID: "shard", Title: "E6: pipeline-parallel sharded inference, " + model}
	rep.Header = []string{"topology", "seq median ms", "seq inf/s", "pipelined inf/s", "overlap", "max |delta|"}

	g, err := zoo.Build(model, 1)
	if err != nil {
		return nil, err
	}
	in := g.Inputs[0]
	vol := tensor.Volume(in.Shape)
	input := make([]float32, vol)
	for i := range input {
		input[i] = float32((i*7+13)%23)*0.1 - 1.1
	}

	// Single-process baseline: the same graph through one plan, giving
	// both the reference output for equality and the un-sharded timing.
	be, err := backend.ByName("orpheus")
	if err != nil {
		return nil, err
	}
	plan, err := be.PrepareWith(g, backend.PrepareOpts{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	pool := runtime.NewSessionPool(plan)
	inT := tensor.FromSlice(append([]float32(nil), input...), in.Shape...)
	var ref []float32
	singleRun := func() error {
		outs, err := pool.Run(cfg.Ctx, map[string]*tensor.Tensor{in.Name: inT})
		if err != nil {
			return err
		}
		ref = outs[g.Outputs[0].Name].Data()
		return nil
	}
	seqMs, seqRate, err := timeRequests(shardSeqReqs, 1, func() error { return singleRun() })
	if err != nil {
		return nil, err
	}
	rep.AddRow("single-process", fmt.Sprintf("%.2f", seqMs), fmt.Sprintf("%.1f", seqRate), "-", "-", "0")

	if len(cfg.Shards) > 0 {
		if err := shardTopology(cfg, rep, model, cfg.Shards, input, ref, nil); err != nil {
			return nil, err
		}
		rep.AddNote("external stages: %d orpheus-shard process(es); equality is against this host's single-process run", len(cfg.Shards))
		return rep, nil
	}

	for _, stages := range []int{2, 3} {
		addrs, closeAll, err := startLocalStages(cfg, model, stages)
		if err != nil {
			return nil, err
		}
		err = shardTopology(cfg, rep, model, addrs, input, ref, closeAll)
		if err != nil {
			return nil, err
		}
	}
	rep.AddNote("sequential = depth 1 (no overlap); pipelined = depth 2n with 2n concurrent submitters; fp32 boundaries must divide the model with max |delta| = 0")
	return rep, nil
}

// startLocalStages spins an in-process loopback chain of n stage
// servers and returns their addresses plus a teardown.
func startLocalStages(cfg *Config, model string, n int) ([]string, func(), error) {
	g, err := zoo.Build(model, 1)
	if err != nil {
		return nil, nil, err
	}
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, nil, err
		}
		addrs[i] = lns[i].Addr().String()
	}
	servers := make([]*shard.Server, n)
	for i := 0; i < n; i++ {
		next := ""
		if i < n-1 {
			next = addrs[i+1]
		}
		servers[i], err = shard.New(shard.Config{
			Model: model, Graph: g, Index: i, Count: n,
			Workers: cfg.Workers, Next: next,
		})
		if err != nil {
			return nil, nil, err
		}
		go servers[i].Serve(lns[i]) //nolint:errcheck // exits on Close
	}
	return addrs, func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}, nil
}

// shardTopology benchmarks one pipeline (local or external) and appends
// its report row: sequential latency, pipelined throughput, overlap
// ratio and output divergence from the single-process reference.
func shardTopology(cfg *Config, rep *Report, model string, addrs []string, input, ref []float32, closeAll func()) error {
	if closeAll != nil {
		defer closeAll()
	}
	n := len(addrs)
	p, err := shard.Dial(cfg.Ctx, shard.PipelineConfig{Model: model, Addrs: addrs, Depth: 2 * n})
	if err != nil {
		return err
	}
	defer p.Close()

	var out []float32
	seqMs, seqRate, err := timeRequests(shardSeqReqs, 1, func() error {
		out, err = p.Predict(cfg.Ctx, input)
		return err
	})
	if err != nil {
		return err
	}
	delta := maxDelta(ref, out)

	_, pipeRate, err := timeRequests(shardPipeReqs, 2*n, func() error {
		_, err := p.Predict(cfg.Ctx, input)
		return err
	})
	if err != nil {
		return err
	}
	rep.AddRow(fmt.Sprintf("%d-shard", n),
		fmt.Sprintf("%.2f", seqMs), fmt.Sprintf("%.1f", seqRate),
		fmt.Sprintf("%.1f", pipeRate), fmt.Sprintf("%.2fx", pipeRate/seqRate),
		fmt.Sprintf("%g", delta))
	return nil
}

// timeRequests drives reqs requests at the given concurrency after a
// short warmup, returning the median per-request latency of the
// sequential portion (ms) and the overall request rate (req/s).
func timeRequests(reqs, conc int, run func() error) (medianMs, rate float64, err error) {
	for i := 0; i < shardWarmup; i++ {
		if err := run(); err != nil {
			return 0, 0, err
		}
	}
	start := time.Now()
	if conc <= 1 {
		lats := make([]float64, reqs)
		for i := range lats {
			t0 := time.Now()
			if err := run(); err != nil {
				return 0, 0, err
			}
			lats[i] = float64(time.Since(t0).Microseconds()) / 1000
		}
		sort.Float64s(lats)
		medianMs = lats[len(lats)/2]
	} else {
		var wg sync.WaitGroup
		errs := make(chan error, conc)
		per := reqs / conc
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := run(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return 0, 0, err
		}
		reqs = per * conc
	}
	elapsed := time.Since(start).Seconds()
	return medianMs, float64(reqs) / elapsed, nil
}

// maxDelta returns the largest absolute elementwise difference.
func maxDelta(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}
