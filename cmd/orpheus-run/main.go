// orpheus-run executes inference on an ONNX model file (or a built-in zoo
// model) and reports timing, the selected kernels and the top
// predictions. It is the command-line equivalent of the Python bindings
// the paper describes for embedding Orpheus in experimental workflows.
//
// Usage:
//
//	orpheus-run -model mobilenet.onnx
//	orpheus-run -zoo resnet-18 -backend tvm-sim -reps 5
//	orpheus-run -zoo wrn-40-2 -profile          # per-layer breakdown
//
// ORPHEUS_GEMM_KERNEL=go forces the portable GEMM micro-kernel (the
// SIMD kernel the CPU supports is the default); comparing the two runs
// is the quickest way to see the SIMD dispatch working.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"orpheus"
)

func main() {
	var (
		modelPath = flag.String("model", "", "path to an .onnx model file")
		zooName   = flag.String("zoo", "", "built-in model name (wrn-40-2, mobilenet-v1, resnet-18, inception-v3, resnet-50)")
		backendN  = flag.String("backend", "orpheus", "execution backend")
		workers   = flag.Int("workers", 1, "kernel thread budget")
		reps      = flag.Int("reps", 3, "timed repetitions")
		warmup    = flag.Int("warmup", 1, "warm-up runs")
		profile   = flag.Bool("profile", false, "print a per-layer breakdown of one run made after the -warmup runs")
		tracePath = flag.String("trace", "", "write a Chrome trace (chrome://tracing) of one profiled run to this file")
		seed      = flag.Uint64("seed", 42, "seed for the synthetic input tensor")
		topK      = flag.Int("top", 5, "print the top-K output classes")
		int8      = flag.Bool("int8", false, "run on the int8 quantized execution tier (~4x smaller weights; outputs carry quantization noise)")
	)
	flag.Parse()

	// Ctrl-C aborts the inference at the next plan-step boundary instead
	// of killing the process mid-kernel.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var (
		model *orpheus.Model
		err   error
	)
	switch {
	case *modelPath != "":
		model, err = orpheus.LoadONNX(*modelPath)
	case *zooName != "":
		model, err = orpheus.BuildZooModel(*zooName)
	default:
		err = fmt.Errorf("one of -model or -zoo is required (zoo models: %v)", orpheus.ZooModels())
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(model.Summary())

	copts := []orpheus.CompileOption{orpheus.WithBackend(*backendN), orpheus.WithWorkers(*workers)}
	if *int8 {
		copts = append(copts, orpheus.WithInt8())
	}
	sess, err := model.Compile(copts...)
	if err != nil {
		fatal(err)
	}
	// Weights a kernel packs at compile are held only as their panels.
	weights, arena := sess.MemoryFootprint()
	fmt.Printf("backend %s: weights %.2f MB + packed %.2f MB, activation arena %.2f MB\n",
		*backendN, float64(weights)/(1<<20), float64(sess.ConstBytes())/(1<<20), float64(arena)/(1<<20))

	x := orpheus.RandomTensor(*seed, model.InputShape()...)
	if *profile || *tracePath != "" {
		// Compile prepacked the weights, but a session's first run still
		// grows its scratch; warm up first so the table ranks the layers
		// by their steady state.
		for i := 0; i < *warmup; i++ {
			if _, err := sess.Predict(ctx, x); err != nil {
				fatal(err)
			}
		}
		out, timings, err := sess.PredictProfiled(ctx, x)
		if err != nil {
			fatal(err)
		}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			if err := orpheus.WriteTrace(f, timings); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote Chrome trace to %s\n", *tracePath)
		}
		sort.Slice(timings, func(i, j int) bool { return timings[i].Duration > timings[j].Duration })
		fmt.Println("\nper-layer breakdown (slowest first):")
		for i, lt := range timings {
			if i >= 15 {
				fmt.Printf("  … %d more layers\n", len(timings)-15)
				break
			}
			fmt.Printf("  %-32s %-10s %-18s %10v\n", lt.Node.Name, lt.Node.Op, lt.Kernel, lt.Duration)
		}
		printTop(out, *topK)
		return
	}

	stats, err := sess.Benchmark(ctx, x, *warmup, *reps)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("inference time: %s\n", stats)
	out, err := sess.Predict(ctx, x)
	if err != nil {
		fatal(err)
	}
	printTop(out, *topK)
}

func printTop(out *orpheus.Tensor, k int) {
	fmt.Printf("\ntop-%d classes:\n", k)
	for _, idx := range out.TopK(k) {
		fmt.Printf("  class %4d  p=%.4f\n", idx, out.Data()[idx])
	}
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "orpheus-run: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "orpheus-run:", err)
	os.Exit(1)
}
