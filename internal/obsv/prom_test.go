package obsv

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"adprom/internal/metrics"
)

// checkPromText is a minimal validator of the Prometheus text exposition
// format: every non-comment line must be `name[{labels}] value`, every series
// must follow a # TYPE header for its family, and histogram bucket counts
// must be cumulative.
func checkPromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	typed := map[string]string{}
	series := map[string]float64{}
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil && val != "+Inf" {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, val, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suf); ok && typed[f] == "histogram" {
				family = f
				break
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("line %d: series %q has no preceding # TYPE header", ln+1, name)
		}
		f, _ := strconv.ParseFloat(val, 64)
		series[key] = f
	}
	return series
}

func TestPromWriterCounterGauge(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("adprom_test_total", "A counter.", 42)
	p.Gauge("adprom_test_gauge", "A gauge.", -1.5)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	series := checkPromText(t, sb.String())
	if series["adprom_test_total"] != 42 {
		t.Errorf("counter = %g, want 42", series["adprom_test_total"])
	}
	if series["adprom_test_gauge"] != -1.5 {
		t.Errorf("gauge = %g, want -1.5", series["adprom_test_gauge"])
	}
}

func TestPromWriterLabelEscaping(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Family("m", "gauge", `help with \ backslash
and newline`)
	p.Sample("m", [][2]string{{"flag", `quo"te\back`}}, 1)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `flag="quo\"te\\back"`) {
		t.Errorf("label value not escaped: %q", out)
	}
	if !strings.Contains(out, `help with \\ backslash\nand newline`) {
		t.Errorf("help text not escaped: %q", out)
	}
}

func TestPromWriterHistogram(t *testing.T) {
	var h metrics.Histogram
	for _, v := range []int64{1, 3, 5, 1000, 2_000_000} {
		h.Observe(v)
	}
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Histogram("adprom_test_seconds", "Latencies.", h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	series := checkPromText(t, sb.String())

	if got := series["adprom_test_seconds_count"]; got != 5 {
		t.Errorf("_count = %g, want 5", got)
	}
	wantSum := float64(1+3+5+1000+2_000_000) / 1e9
	if got := series["adprom_test_seconds_sum"]; got != wantSum {
		t.Errorf("_sum = %g, want %g", got, wantSum)
	}
	if got := series[`adprom_test_seconds_bucket{le="+Inf"}`]; got != 5 {
		t.Errorf("+Inf bucket = %g, want 5", got)
	}
	// Buckets must be cumulative: each le series ≥ the previous one, and the
	// smallest bucket (le=1e-09, i.e. ≤1ns) holds exactly the value 1.
	if got := series[`adprom_test_seconds_bucket{le="1e-09"}`]; got != 1 {
		t.Errorf("le=1e-09 bucket = %g, want 1", got)
	}
	var prev float64
	for i := 0; i < metrics.HistBuckets-1; i++ {
		key := fmt.Sprintf(`adprom_test_seconds_bucket{le="%s"}`, formatValue(metrics.BucketBound(i)/1e9))
		got, ok := series[key]
		if !ok {
			continue // trailing empty buckets collapse into +Inf
		}
		if got < prev {
			t.Errorf("bucket %s = %g < previous %g; not cumulative", key, got, prev)
		}
		prev = got
	}
}

func TestPromWriterStickyError(t *testing.T) {
	p := NewPromWriter(failWriter{})
	p.Counter("a_total", "h", 1)
	p.Gauge("b", "h", 2)
	if p.Err() == nil {
		t.Fatal("expected the first write error to stick")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }
