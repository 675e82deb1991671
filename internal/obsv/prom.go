package obsv

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"adprom/internal/metrics"
)

// PromWriter renders metric families in the Prometheus text exposition
// format (version 0.0.4) using only the standard library. Families are
// written in call order; the first error sticks and is reported by Err.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, nil if all writes succeeded.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family writes the # HELP and # TYPE header of one metric family; typ is
// "counter", "gauge", or "histogram".
func (p *PromWriter) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Counter writes a single-series counter family.
func (p *PromWriter) Counter(name, help string, v float64) {
	p.Family(name, "counter", help)
	p.Sample(name, nil, v)
}

// Gauge writes a single-series gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Family(name, "gauge", help)
	p.Sample(name, nil, v)
}

// Sample writes one series line. Labels are name/value pairs rendered in the
// given order; values are escaped per the exposition format.
func (p *PromWriter) Sample(name string, labels [][2]string, v float64) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, formatValue(v))
		return
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		// %q escapes quotes, backslashes, and newlines exactly as the
		// exposition format requires.
		fmt.Fprintf(&sb, "%s=%q", l[0], l[1])
	}
	p.printf("%s{%s} %s\n", name, sb.String(), formatValue(v))
}

// Histogram writes one metrics.HistogramSnapshot as a Prometheus histogram:
// cumulative le-buckets at the power-of-two bounds (trailing empty buckets
// collapse into the +Inf series), then _sum and _count. Values are in
// seconds, the Prometheus convention for durations.
func (p *PromWriter) Histogram(name, help string, h metrics.HistogramSnapshot) {
	p.Family(name, "histogram", help)
	p.HistogramSamples(name, nil, h)
}

// HistogramSamples writes one histogram's series (cumulative le-buckets,
// _sum, _count) without a family header, with labels prepended to every
// series — the building block for multi-series histogram families such as
// the per-tenant latency histograms, where Family is written once and each
// tenant contributes one labelled sample set.
func (p *PromWriter) HistogramSamples(name string, labels [][2]string, h metrics.HistogramSnapshot) {
	last := 0
	for i, n := range h.Buckets {
		if n > 0 {
			last = i + 1
		}
	}
	bucketLabels := func(le string) [][2]string {
		out := make([][2]string, 0, len(labels)+1)
		out = append(out, labels...)
		return append(out, [2]string{"le", le})
	}
	var cum uint64
	for i := 0; i < last && i < metrics.HistBuckets-1; i++ {
		cum += h.Buckets[i]
		le := metrics.BucketBound(i) / 1e9
		p.Sample(name+"_bucket", bucketLabels(formatValue(le)), float64(cum))
	}
	p.Sample(name+"_bucket", bucketLabels("+Inf"), float64(h.Count))
	p.Sample(name+"_sum", labels, float64(h.Sum)/1e9)
	p.Sample(name+"_count", labels, float64(h.Count))
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
