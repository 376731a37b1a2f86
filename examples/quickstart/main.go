// Quickstart: build one of the paper's models, compile it with the
// default Orpheus backend and classify a (synthetic) image.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"orpheus"
)

func main() {
	// 1. Load a model. Here we use the built-in WRN-40-2 (CIFAR-10);
	//    orpheus.LoadONNX("model.onnx") works the same way for files
	//    exported from training frameworks.
	model, err := orpheus.BuildZooModel("wrn-40-2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(model.Summary())

	// 2. Compile: graph simplification (BN folding, activation fusion),
	//    kernel selection, weight packing and arena planning happen here.
	sess, err := model.Compile(orpheus.WithBackend("orpheus"), orpheus.WithWorkers(1))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close() // graceful drain: waits for in-flight requests
	// The weights the GEMM kernels read are held once, as packed panels.
	weights, arena := sess.MemoryFootprint()
	fmt.Printf("compiled: %.2f MB weights + %.2f MB packed, %.2f MB activation arena\n",
		float64(weights)/(1<<20), float64(sess.ConstBytes())/(1<<20), float64(arena)/(1<<20))

	// 3. Run inference on a deterministic synthetic image. Every predict
	//    path takes a context: cancellation aborts the run at the next
	//    layer boundary (use context.WithTimeout for a latency budget).
	ctx := context.Background()
	input := orpheus.RandomTensor(7, model.InputShape()...)
	probs, err := sess.Predict(ctx, input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-3 classes:")
	for _, idx := range probs.TopK(3) {
		fmt.Printf("  class %d: p=%.4f\n", idx, probs.Data()[idx])
	}

	// 4. Time it the way the paper's experiments do (warm-up + repeats).
	stats, err := sess.Benchmark(ctx, input, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsingle-thread inference: %s\n", stats)
}
