package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is the part of BENCHMARK.json the program reads: the one place that
// names the workloads and metrics, their units and the bound each
// end-to-end metric may worsen by.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// withUnits reports a value for every metric of the list, 0 for one the
// workload has no layer for, and refuses a value the list does not name.
func withUnits(list []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		out[m.Name] = metric{values[m.Name], m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %q, which BENCHMARK.json does not list", name)
		}
	}
	return out, nil
}
