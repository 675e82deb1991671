package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (sorting xs in place)
// and whether at least minBeyond samples lie above it. An unfinished item
// enters xs as +Inf, above every percentile.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	slices.Sort(xs)
	k := int(math.Ceil(q * float64(n)))
	k = max(k, 1)
	return xs[k-1], n-k >= minBeyond
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report gathers metrics in order and renders them for people and for
// run.py.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name, unit string, v float64, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	if math.IsInf(v, 1) {
		v = math.MaxFloat64
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// pct reports the q-quantile of xs scaled by scale (e.g. 1e-6 for ns → ms).
// A percentile the sample cannot support is reported as 0 and marked so.
func (r *report) pct(name, unit string, xs []float64, q, scale float64) {
	v, ok := percentile(xs, q)
	note := fmt.Sprintf("n=%d", len(xs))
	if !ok {
		note += fmt.Sprintf(", fewer than %d samples above p%g: not reported", minBeyond, q*100)
		v = 0
	}
	r.set(name, unit, v*scale, note)
}

func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %14.6g %-8s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
}

// result is the last line the program prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (sorting xs in place); 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
