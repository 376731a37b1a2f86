package harness

import (
	"strings"
	"testing"
)

// simCfg returns a simulation-mode config (instant, deterministic).
func simCfg(models ...string) *Config {
	return &Config{Mode: ModeSim, Models: models}
}

func TestExperimentRegistry(t *testing.T) {
	for _, id := range []string{"fig2", "table1", "sweep", "passes", "memory", "layerwise", "autotune"} {
		if _, err := ByID(id); err != nil {
			t.Fatalf("experiment %q missing: %v", id, err)
		}
	}
	if _, err := ByID("fig9"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(All()) < 7 {
		t.Fatalf("All() returned %d experiments", len(All()))
	}
}

// TestFig2ShapeMatchesPaper is the headline check: the simulated Figure 2
// must reproduce the paper's qualitative result — "Orpheus provides the
// best results for the biggest models (ResNets and Inception), whereas
// TVM is the best for the smallest ones (WRN and MobileNet)".
func TestFig2ShapeMatchesPaper(t *testing.T) {
	winners, err := Fig2Winners(simCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"wrn-40-2":     "tvm-sim",
		"mobilenet-v1": "tvm-sim",
		"resnet-18":    "orpheus",
		"inception-v3": "orpheus",
		"resnet-50":    "orpheus",
	}
	for model, fw := range want {
		if winners[model] != fw {
			t.Errorf("fastest on %s = %s, paper says %s", model, winners[model], fw)
		}
	}
}

func TestFig2PyTorchNeverFastestAndMobileNetCollapse(t *testing.T) {
	results, _, err := RunFig2(simCfg())
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]map[string]float64{}
	for _, r := range results {
		if r.excluded != "" {
			continue
		}
		if times[r.model] == nil {
			times[r.model] = map[string]float64{}
		}
		times[r.model][r.backendName] = r.simMs
	}
	for model, ts := range times {
		if torch, orp := ts["torch-sim"], ts["orpheus"]; torch > 0 && orp > 0 && torch < orp {
			t.Errorf("%s: PyTorch (%.1f) beat Orpheus (%.1f); paper says PyTorch is always worse", model, torch, orp)
		}
	}
	// "PyTorch performs poorly for MobileNetV1 because of an inefficient
	// implementation of the depthwise convolution."
	mb := times["mobilenet-v1"]
	if mb["torch-sim"] < 1.8*mb["tvm-sim"] {
		t.Errorf("MobileNetV1: PyTorch %.1fms vs TVM %.1fms — collapse not reproduced", mb["torch-sim"], mb["tvm-sim"])
	}
}

func TestFig2DarkNetSecondsScale(t *testing.T) {
	// "inference time measured in seconds (e.g. ~3s for ResNet-18)".
	results, _, err := RunFig2(simCfg("resnet-18"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.backendName != "darknet-sim" {
			continue
		}
		if r.excluded != "" {
			t.Fatalf("darknet should run resnet-18: %s", r.excluded)
		}
		if r.simMs < 1500 || r.simMs > 10000 {
			t.Errorf("DarkNet ResNet-18 = %.0fms, paper reports ~3000ms", r.simMs)
		}
	}
}

func TestFig2Exclusions(t *testing.T) {
	results, rep, err := RunFig2(simCfg())
	if err != nil {
		t.Fatal(err)
	}
	var darknetNA, tfliteNA int
	for _, r := range results {
		if r.backendName == "darknet-sim" && r.excluded != "" {
			darknetNA++
		}
		if r.backendName == "tflite-sim" && r.excluded != "" {
			tfliteNA++
		}
	}
	if darknetNA != 3 { // all but the two ResNets
		t.Errorf("DarkNet n/a on %d models, want 3", darknetNA)
	}
	if tfliteNA != 5 { // single-thread figure: always excluded
		t.Errorf("TF-Lite n/a on %d models, want 5", tfliteNA)
	}
	if !strings.Contains(rep.Format(), "n/a") {
		t.Error("report should mark exclusions as n/a")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	ratings, err := DerivePerformanceRatings(simCfg())
	if err != nil {
		t.Fatal(err)
	}
	for fw, want := range PaperPerformanceRow {
		if ratings[fw] != want {
			t.Errorf("derived Performance[%s] = %d, paper says %d (%s)", fw, ratings[fw], want, FormatRatings(ratings))
		}
	}
	e, _ := ByID("table1")
	rep, err := e.Run(simCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, feature := range []string{"Low-level modifications", "Model interoperability", "Platform Compatibility", "Codebase accessibility", "Performance"} {
		if !strings.Contains(out, feature) {
			t.Errorf("table1 missing row %q", feature)
		}
	}
}

func TestSweepFindsCrossover(t *testing.T) {
	e, _ := ByID("sweep")
	rep, err := e.Run(simCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Small shapes should go to spatial pack, large ones to im2col.
	var fastest []string
	for _, row := range rep.Rows {
		fastest = append(fastest, row[len(row)-1])
	}
	if fastest[0] != "conv.spatialpack" {
		t.Errorf("smallest shape fastest = %s, want conv.spatialpack", fastest[0])
	}
	sawGemmish := false
	for _, f := range fastest {
		if f == "conv.im2col" || f == "conv.winograd" {
			sawGemmish = true
		}
	}
	if !sawGemmish {
		t.Error("no large shape won by a GEMM-family kernel; crossover missing")
	}
}

func TestMemoryAblationShowsSavings(t *testing.T) {
	e, _ := ByID("memory")
	rep, err := e.Run(simCfg("resnet-18"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	saving := rep.Rows[0][len(rep.Header)-1]
	if !strings.HasSuffix(saving, "x") {
		t.Fatalf("saving cell = %q", saving)
	}
	if saving < "2" { // at least 2x reuse on a chain-heavy CNN
		t.Errorf("arena saving %s looks too small", saving)
	}
}

func TestPassesAblationSpeedup(t *testing.T) {
	e, _ := ByID("passes")
	rep, err := e.Run(simCfg("resnet-18"))
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if row[1] <= row[2] {
		t.Errorf("optimisation did not shrink the graph: raw %s vs opt %s nodes", row[1], row[2])
	}
	if !strings.HasSuffix(row[5], "x") {
		t.Errorf("speedup cell = %q", row[5])
	}
}

func TestLayerwiseReportsTopLayers(t *testing.T) {
	e, _ := ByID("layerwise")
	rep, err := e.Run(simCfg("wrn-40-2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || len(rep.Rows) > 12 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.Rows[0][1] != "Conv" {
		t.Errorf("most expensive layer is %s, expected a Conv", rep.Rows[0][1])
	}
}

func TestAutotuneAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("autotune measures real kernels; run without -short")
	}
	e, _ := ByID("autotune")
	rep, err := e.Run(simCfg("wrn-40-2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || rep.Rows[0][4] == "" {
		t.Fatalf("autotune report malformed: %+v", rep.Rows)
	}
}

func TestReportFormatAndCSV(t *testing.T) {
	rep := &Report{ID: "x", Title: "T", Header: []string{"a", "b"}}
	rep.AddRow("hello", 3.14159)
	rep.AddRow("with,comma", "quote\"y")
	rep.AddNote("note %d", 1)
	txt := rep.Format()
	if !strings.Contains(txt, "== x: T ==") || !strings.Contains(txt, "3.14") || !strings.Contains(txt, "note: note 1") {
		t.Fatalf("format output:\n%s", txt)
	}
	csv := rep.CSV()
	if !strings.Contains(csv, `"with,comma"`) || !strings.Contains(csv, `"quote""y"`) {
		t.Fatalf("csv escaping wrong:\n%s", csv)
	}
}

func TestMeasuredModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("measured fig2 on WRN is slow; run without -short")
	}
	cfg := &Config{Mode: ModeMeasure, Models: []string{"wrn-40-2"}, Warmup: 0, Reps: 1}
	results, rep, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.excluded == "" && r.measuredMs <= 0 {
			t.Errorf("%s/%s: measured time missing", r.model, r.backendName)
		}
	}
	if !strings.Contains(rep.Format(), "measured host ms") {
		t.Error("measured header missing")
	}
}
