// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark report, so CI can archive machine-readable performance numbers
// next to the human-readable log.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . > bench.txt
//	benchjson -o BENCH_runtime.json < bench.txt
//
// Standard measurements (ns/op, B/op, allocs/op) become typed fields; any
// custom b.ReportMetric units are kept in a metrics map — throughput
// (calls/s, x_vs_batch_monitor), the observe-path latency percentiles
// (p50_latency_ns, p95_latency_ns, p99_latency_ns), and the observability
// layer's cost (overhead_pct) all flow through unchanged.
//
// With -baseline, benchjson instead compares the report parsed from stdin
// against a committed baseline JSON and exits 1 when any benchmark present
// in both regressed in ns/op by more than -tolerance (default 0.20, i.e.
// 20%). -filter restricts the comparison to benchmark names matching a
// regexp — the CI bench-smoke gate:
//
//	go test -run '^$' -bench 'ScorerLogProb|StreamPush' -benchtime 3x ./internal/hmm |
//	    benchjson -baseline BENCH_runtime.json -filter 'ScorerLogProb|StreamPush'
//
// Benchmarks only on one side are reported but never fail the gate, so
// adding or retiring a benchmark does not break CI. Names are compared
// without the -<GOMAXPROCS> suffix go test appends, so a baseline recorded
// on one CPU count gates runs on another.
//
// -metric-max asserts absolute ceilings on custom metrics, independent of any
// baseline: each comma-separated clause is nameRegexp:metric=max, and the
// gate fails when the min-of-N value of that metric across matching
// benchmarks exceeds the ceiling — the tracing-overhead budget:
//
//	go test -run '^$' -bench TracingOverhead -count 3 . |
//	    benchjson -metric-max 'TracingOverhead:overhead_pct=5'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// procsSuffix matches the -<GOMAXPROCS> suffix go test appends to every
// benchmark name when GOMAXPROCS > 1.
var procsSuffix = regexp.MustCompile(`-[0-9]+$`)

// benchName strips the -<GOMAXPROCS> suffix from a benchmark name.
func benchName(name string) string { return procsSuffix.ReplaceAllString(name, "") }

// Result is one benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file benchjson writes. Input may concatenate several
// packages' bench output; each result carries the pkg it came from.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline report JSON; compare instead of converting, exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression vs -baseline (0.20 = 20%)")
	filter := flag.String("filter", "", "regexp restricting which benchmark names -baseline compares")
	metricMax := flag.String("metric-max", "", "comma-separated nameRegexp:metric=max ceilings on custom metrics (min-of-N); exit 1 when exceeded")
	flag.Parse()

	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *baseline != "" || *metricMax != "" {
		ok := true
		if *baseline != "" {
			cmpOK, err := compare(rep, *baseline, *tolerance, *filter)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			ok = ok && cmpOK
		}
		if *metricMax != "" {
			maxOK, err := checkMetricMax(rep, *metricMax)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
			ok = ok && maxOK
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// minNs folds a report into the fastest ns/op seen per benchmark name,
// suffix stripped (baselines written before parseBench stripped it still
// carry one). Both sides of a comparison are expected to run with -count > 1; min-of-N
// is the standard way to strip scheduler noise from a shared CI box, since
// a benchmark can run unluckily slow but never unluckily fast.
func minNs(rep *Report) map[string]float64 {
	m := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 {
			continue
		}
		name := benchName(b.Name)
		if best, seen := m[name]; !seen || b.NsPerOp < best {
			m[name] = b.NsPerOp
		}
	}
	return m
}

// compare checks the freshly parsed report against a committed baseline and
// prints one line per benchmark compared. It returns ok=false when any
// benchmark present in both reports (and matching the filter, if given) got
// slower in min-of-N ns/op by more than the tolerance fraction. Names on
// only one side are noted but never fail the gate.
func compare(cur *Report, baselinePath string, tolerance float64, filter string) (bool, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	var re *regexp.Regexp
	if filter != "" {
		if re, err = regexp.Compile(filter); err != nil {
			return false, fmt.Errorf("filter: %w", err)
		}
	}
	baseNs, curNs := minNs(&base), minNs(cur)
	names := make([]string, 0, len(curNs))
	for name := range curNs {
		if re == nil || re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ok, compared := true, 0
	for _, name := range names {
		now := curNs[name]
		was, found := baseNs[name]
		if !found {
			fmt.Printf("  ?   %-40s %12.0f ns/op  (no baseline)\n", name, now)
			continue
		}
		compared++
		delta := now/was - 1
		mark := "ok"
		if delta > tolerance {
			mark, ok = "FAIL", false
		}
		fmt.Printf("%4s  %-40s %12.0f ns/op  vs %12.0f  (%+.1f%%, tolerance %.0f%%)\n",
			mark, name, now, was, 100*delta, 100*tolerance)
	}
	if compared == 0 {
		return false, fmt.Errorf("no benchmarks in common with baseline %s (filter %q)", baselinePath, filter)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchjson: benchmark regression beyond tolerance")
	}
	return ok, nil
}

// checkMetricMax enforces absolute ceilings on custom metrics. Each clause
// is nameRegexp:metric=max; the value held against the ceiling is the
// minimum across every matching benchmark result (min-of-N, same noise
// policy as the ns/op gate: a run can be unluckily slow, never unluckily
// fast). A clause matching no result with that metric is an error, so a
// renamed benchmark cannot silently disarm the gate.
func checkMetricMax(cur *Report, spec string) (bool, error) {
	ok := true
	for _, clause := range strings.Split(spec, ",") {
		name, rest, found := strings.Cut(clause, ":")
		if !found {
			return false, fmt.Errorf("metric-max clause %q: want nameRegexp:metric=max", clause)
		}
		metric, maxStr, found := strings.Cut(rest, "=")
		if !found {
			return false, fmt.Errorf("metric-max clause %q: want nameRegexp:metric=max", clause)
		}
		ceiling, err := strconv.ParseFloat(maxStr, 64)
		if err != nil {
			return false, fmt.Errorf("metric-max clause %q: %w", clause, err)
		}
		re, err := regexp.Compile(name)
		if err != nil {
			return false, fmt.Errorf("metric-max clause %q: %w", clause, err)
		}
		best, matched := 0.0, false
		for _, b := range cur.Benchmarks {
			if !re.MatchString(b.Name) {
				continue
			}
			v, has := b.Metrics[metric]
			if !has {
				continue
			}
			if !matched || v < best {
				best, matched = v, true
			}
		}
		if !matched {
			return false, fmt.Errorf("metric-max clause %q matched no benchmark reporting %s", clause, metric)
		}
		mark := "ok"
		if best > ceiling {
			mark, ok = "FAIL", false
		}
		fmt.Printf("%4s  %-40s %12.2f %s  (ceiling %.2f, min of %d runs)\n",
			mark, name, best, metric, ceiling, countMatches(cur, re, metric))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchjson: metric ceiling exceeded")
	}
	return ok, nil
}

func countMatches(rep *Report, re *regexp.Regexp, metric string) int {
	n := 0
	for _, b := range rep.Benchmarks {
		if _, has := b.Metrics[metric]; has && re.MatchString(b.Name) {
			n++
		}
	}
	return n
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			r.Pkg = pkg
			rep.Benchmarks = append(rep.Benchmarks, r)
		}
	}
	return rep, sc.Err()
}

// parseBench decodes one result line: a name, an iteration count, then
// value/unit pairs. The name loses its Benchmark prefix and -<GOMAXPROCS>
// suffix, so reports from hosts with different CPU counts share names.
//
//	BenchmarkRuntimeThroughput-4  3  41243292 ns/op  1201 B/op  5 allocs/op  291883 calls/s
func parseBench(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, fmt.Errorf("want name and iterations")
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("iterations: %w", err)
	}
	r := Result{Name: benchName(strings.TrimPrefix(fields[0], "Benchmark")), Iterations: iters}
	pairs := fields[2:]
	if len(pairs)%2 != 0 {
		return Result{}, fmt.Errorf("odd value/unit tail")
	}
	for i := 0; i < len(pairs); i += 2 {
		v, err := strconv.ParseFloat(pairs[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("value %q: %w", pairs[i], err)
		}
		switch unit := pairs[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, nil
}
