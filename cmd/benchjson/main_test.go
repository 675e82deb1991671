package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: adprom
cpu: Intel(R) Xeon(R)
BenchmarkRuntimeThroughput-4   	       3	  41243292 ns/op	    1201 B/op	       5 allocs/op	    291883 calls/s	     12.50 x_vs_batch_monitor	      4096 p50_latency_ns	     16384 p95_latency_ns	     32768 p99_latency_ns
BenchmarkInstrumentationOverhead-4 	       3	1620208058 ns/op	     21625 baseline_calls/s	     21607 calls/s	         0.08373 overhead_pct
PASS
ok  	adprom	2.573s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "RuntimeThroughput" || b.Pkg != "adprom" || b.Iterations != 3 {
		t.Fatalf("identity: %+v", b)
	}
	if b.NsPerOp != 41243292 || b.BytesPerOp != 1201 || b.AllocsPerOp != 5 {
		t.Fatalf("standard units: %+v", b)
	}
	if b.Metrics["calls/s"] != 291883 || b.Metrics["x_vs_batch_monitor"] != 12.5 {
		t.Fatalf("custom metrics: %+v", b.Metrics)
	}
	// The latency percentiles ride through the metrics map with their units
	// as keys, so the JSON report carries the histogram shape.
	for key, want := range map[string]float64{
		"p50_latency_ns": 4096,
		"p95_latency_ns": 16384,
		"p99_latency_ns": 32768,
	} {
		if got := b.Metrics[key]; got != want {
			t.Errorf("Metrics[%q] = %g, want %g", key, got, want)
		}
	}
	ov := rep.Benchmarks[1]
	if ov.Name != "InstrumentationOverhead" {
		t.Fatalf("second benchmark: %+v", ov)
	}
	if got := ov.Metrics["overhead_pct"]; got != 0.08373 {
		t.Errorf("Metrics[overhead_pct] = %g, want 0.08373", got)
	}
	if got := ov.Metrics["baseline_calls/s"]; got != 21625 {
		t.Errorf("Metrics[baseline_calls/s] = %g, want 21625", got)
	}
}

// TestCheckMetricMax exercises the absolute-ceiling gate: min-of-N
// aggregation, pass/fail around the ceiling, multiple clauses, and the
// matched-nothing error that keeps a renamed benchmark from disarming it.
func TestCheckMetricMax(t *testing.T) {
	rep := &Report{Benchmarks: []Result{
		{Name: "TracingOverhead-4", Metrics: map[string]float64{"overhead_pct": 7.2}},
		{Name: "TracingOverhead-4", Metrics: map[string]float64{"overhead_pct": 3.1}},
		{Name: "TracingOverhead-4", Metrics: map[string]float64{"overhead_pct": 4.9}},
		{Name: "RuntimeThroughput-4", Metrics: map[string]float64{"calls/s": 250000}},
	}}

	// Min of {7.2, 3.1, 4.9} = 3.1 ≤ 5: noise above the ceiling is forgiven
	// when any run came in under budget.
	if ok, err := checkMetricMax(rep, "TracingOverhead:overhead_pct=5"); err != nil || !ok {
		t.Errorf("min-of-N under ceiling: ok=%v err=%v", ok, err)
	}
	// Ceiling below the best run fails.
	if ok, err := checkMetricMax(rep, "TracingOverhead:overhead_pct=3"); err != nil || ok {
		t.Errorf("ceiling below min: ok=%v err=%v", ok, err)
	}
	// Multiple clauses: one failing clause fails the gate.
	if ok, err := checkMetricMax(rep, "RuntimeThroughput:calls/s=1000000,TracingOverhead:overhead_pct=3"); err != nil || ok {
		t.Errorf("mixed clauses: ok=%v err=%v", ok, err)
	}
	// A clause matching nothing is an error, not a silent pass.
	if _, err := checkMetricMax(rep, "Vanished:overhead_pct=5"); err == nil {
		t.Error("clause matching no benchmark must error")
	}
	// Malformed clauses are rejected.
	for _, spec := range []string{"noseparator", "Name:metriconly", "Name:metric=NaNx", "(bad[:metric=5"} {
		if _, err := checkMetricMax(rep, spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParseBenchRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",             // no iterations
		"BenchmarkX abc",         // bad iterations
		"BenchmarkX 3 10",        // value without unit
		"BenchmarkX 3 ten ns/op", // bad value
	} {
		if _, err := parseBench(line); err == nil {
			t.Errorf("parseBench(%q) accepted", line)
		}
	}
}

// TestCompareAcrossCPUCounts: a baseline recorded at GOMAXPROCS=2 gates a
// run at GOMAXPROCS=4 and a run at GOMAXPROCS=1 (no suffix), and a
// regression still fails the gate across the suffix difference.
func TestCompareAcrossCPUCounts(t *testing.T) {
	base := Report{Benchmarks: []Result{
		{Name: "TenantRoute-2", NsPerOp: 100},
		{Name: "StreamPush/exact/50states-2", NsPerOp: 4000},
	}}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		run    string
		wantOK bool
	}{
		{"-4 suffix", "BenchmarkTenantRoute-4 1000 105 ns/op\nBenchmarkStreamPush/exact/50states-4 100 4100 ns/op\n", true},
		{"no suffix", "BenchmarkTenantRoute 1000 105 ns/op\nBenchmarkStreamPush/exact/50states 100 4100 ns/op\n", true},
		{"regression", "BenchmarkTenantRoute-4 1000 150 ns/op\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur, err := parse(bufio.NewScanner(strings.NewReader(tc.run)))
			if err != nil {
				t.Fatal(err)
			}
			ok, err := compare(cur, path, 0.20, "TenantRoute|StreamPush")
			if err != nil {
				t.Fatalf("compare: %v", err)
			}
			if ok != tc.wantOK {
				t.Fatalf("compare ok = %v, want %v", ok, tc.wantOK)
			}
		})
	}
}
