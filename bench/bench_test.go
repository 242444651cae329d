package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a tiny scale
// through the benchmark's entry point, and checks that each metric
// BENCHMARK.json names is reported and that no request failed.
func TestSmoke(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = nil
	for _, wl := range saved {
		if wl.pairs > 0 {
			wl.pairs, wl.keys = min(wl.pairs, 20_000), min(wl.keys, 20_000)
		}
		workloads = append(workloads, wl)
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].name)
		}
	}
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		if err := run(&out, config{workload: "all", seed: 1, seconds: 0.8, trace: trace, runs: 1}); err != nil {
			t.Fatalf("trace=%v: %v\n%s", trace, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("trace=%v: last line is not the result object: %v", trace, err)
		}
		if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v, %d of %d requests failed", trace, sum.Correct, sum.Failed, sum.Attempted)
		}
		names := spec.EndToEnd
		if trace {
			names = spec.PerLayer
		}
		for _, wl := range workloads {
			for _, m := range names {
				if _, ok := sum.Metrics[wl.name+"/"+m.Name]; !ok {
					t.Errorf("trace=%v: %s reports no %s", trace, wl.name, m.Name)
				}
			}
		}
		if t.Failed() {
			t.Logf("output:\n%s", out.String())
		}
	}
}
