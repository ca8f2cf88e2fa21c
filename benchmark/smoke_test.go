package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end and traced with -quick
// sizing. It asserts the correctness checks and that every named metric
// is present and finite; it asserts no timing.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	var stdout, stderr strings.Builder
	code := run([]string{"-quick", "-dir", filepath.Join(dir, "run"), "-traces", filepath.Join(dir, "out"), "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Workload string
		Traced   bool
		Correct  bool
		Metrics  map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(workloads) {
		t.Fatalf("%d result rows for %d workloads", len(rows), len(workloads))
	}
	for _, row := range rows {
		if !row.Correct {
			t.Errorf("%s (traced %v) is not correct", row.Workload, row.Traced)
		}
		for _, d := range defsOf(row.Traced) {
			m, ok := row.Metrics[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s missing or not finite", row.Workload, d.name)
			}
		}
		if row.Traced {
			if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+row.Workload+".json")); err != nil {
				t.Errorf("%s: %v", row.Workload, err)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the contract the driver reads,
// identical to what -list generates from the definitions here.
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	list(&want)
	if string(got) != want.String() {
		t.Errorf("BENCHMARK.json differs from `benchmark -list`; regenerate it")
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
}
