// orpheus-bench regenerates the paper's evaluation — Figure 2, Table I and
// the ablation experiments A1–A5 — plus the repo's own experiments:
// "batch" (batched throughput at n = 1, 4, 8), "layout" (NHWC vs NCHW
// plans) and "shard" (pipeline-parallel stages).
//
// Usage:
//
//	orpheus-bench                                  # every experiment, simulated A73
//	orpheus-bench -experiment fig2 -mode both      # fig2, simulated + measured
//	orpheus-bench -experiment fig2 -mode measure -reps 5 -models wrn-40-2,resnet-18
//	orpheus-bench -experiment shard                # pipeline-parallel sharding, loopback stages
//	orpheus-bench -shards host1:9101,host2:9102    # same, against running orpheus-shard processes
//	orpheus-bench -list                            # list experiment ids
//	orpheus-bench -csv results.csv -experiment fig2
//
// Modes: "sim" evaluates the Cortex-A73 (HiKey 970) cost model and is
// instant; "measure" times real single-thread inference on this machine;
// "both" reports the two side by side. See docs/CLI.md for worked
// examples of every tool.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"orpheus/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (default: run all); see -list")
		mode       = flag.String("mode", "sim", "sim | measure | both")
		reps       = flag.Int("reps", 3, "measured repetitions per point")
		warmup     = flag.Int("warmup", 1, "measured warm-up runs per point")
		workers    = flag.Int("workers", 1, "thread count for measured runs (paper uses 1)")
		models     = flag.String("models", "", "comma-separated model subset (default: all five)")
		csvPath    = flag.String("csv", "", "also write the report as CSV to this file")
		shards     = flag.String("shards", "", "shard experiment: comma-separated addresses of running orpheus-shard stages, in pipeline order (default: in-process loopback stages)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	// Ctrl-C aborts a measured sweep between plan steps instead of
	// killing the process mid-experiment.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	cfg := &harness.Config{
		Ctx:     ctx,
		Mode:    harness.Mode(*mode),
		Reps:    *reps,
		Warmup:  *warmup,
		Workers: *workers,
	}
	if *models != "" {
		cfg.Models = strings.Split(*models, ",")
	}
	if *shards != "" {
		cfg.Shards = strings.Split(*shards, ",")
		if *experiment == "" {
			*experiment = "shard"
		}
	}

	var ids []string
	if *experiment != "" {
		ids = []string{*experiment}
	} else {
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
	}

	var csvOut strings.Builder
	for _, id := range ids {
		e, err := harness.ByID(id)
		if err != nil {
			fatal(err)
		}
		rep, err := e.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("experiment %s: %w", id, err))
		}
		fmt.Println(rep.Format())
		csvOut.WriteString(rep.CSV())
		csvOut.WriteString("\n")
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csvOut.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote CSV to %s\n", *csvPath)
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "orpheus-bench: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "orpheus-bench:", err)
	os.Exit(1)
}
