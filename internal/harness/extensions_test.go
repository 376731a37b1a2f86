package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestQuantizeExperiment(t *testing.T) {
	e, err := ByID("quantize")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(simCfg("wrn-40-2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if !strings.HasSuffix(row[3], "x") {
		t.Fatalf("compression cell = %q", row[3])
	}
	// The row describes the compiled int8 plan: some layer runs on an int8
	// kernel, and that plan holds fewer weight bytes than the fp32 one.
	var quantized, layers int
	if _, err := fmt.Sscanf(row[4], "%d/%d", &quantized, &layers); err != nil || quantized < 1 || quantized > layers {
		t.Fatalf("int8 layers cell = %q, want k/n with 1 <= k <= n", row[4])
	}
	fp32MB, err1 := strconv.ParseFloat(row[1], 64)
	int8MB, err2 := strconv.ParseFloat(row[2], 64)
	if err1 != nil || err2 != nil || int8MB >= fp32MB {
		t.Fatalf("weights fp32 %q MB, int8 %q MB: want the int8 plan smaller", row[1], row[2])
	}
}

func TestThreadsExperimentMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("threads experiment measures real inference; run without -short")
	}
	e, err := ByID("threads")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(&Config{Mode: ModeMeasure, Models: []string{"wrn-40-2"}, Warmup: 0, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// orpheus row + tflite-sim row; tflite 1-thread cell must be n/a.
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d: %v", len(rep.Rows), rep.Rows)
	}
	for _, row := range rep.Rows {
		if row[1] == "TF-Lite" && row[2] != "n/a" {
			t.Fatalf("TF-Lite 1-thread cell = %q, want n/a", row[2])
		}
	}
}
