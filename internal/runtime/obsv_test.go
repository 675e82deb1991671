package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/detect"
	"adprom/internal/metrics"
	"adprom/internal/obsv"
)

// TestStatsStringGolden pins the full Stats.String rendering with every field
// at a distinct value, so a counter silently dropped from the format string
// fails here rather than disappearing from operators' logs.
func TestStatsStringGolden(t *testing.T) {
	st := Stats{
		Calls:             100,
		Dropped:           3,
		QueueDepth:        7,
		Workers:           4,
		QueueCap:          64,
		ActiveSessions:    2,
		SessionsOpened:    9,
		AvgLatency:        1500 * time.Nanosecond,
		MaxLatency:        2 * time.Millisecond,
		P50Latency:        time.Microsecond,
		P95Latency:        3 * time.Microsecond,
		P99Latency:        9 * time.Microsecond,
		Panics:            1,
		WorkerRestarts:    12,
		Quarantined:       13,
		SinkDropped:       14,
		SinkPanics:        15,
		Generation:        6,
		Swaps:             5,
		EnginesRetired:    16,
		DecisionsRecorded: 11,
		TracesStored:      18,
		TracesSampledOut:  19,
		Shed:              17,
		ShedRate:          0.125,
		EstimatedMissProb: 0.0625,
		ShedEngaged:       true,
		QueueHighWater:    33,
	}
	st.Alerts[int(detect.FlagAnomalous)] = 2
	st.Alerts[int(detect.FlagDL)] = 5
	st.Alerts[int(detect.FlagOutOfContext)] = 1
	st.ChannelAlerts = [metrics.NumChannels]uint64{21, 22, 23}

	want := "calls=100 dropped=3 alerts=8 (anomalous=2 dl=5 ooc=1) " +
		"channels[hmm=21 sql=22 fused=23] " +
		"sessions=2/9 queue=7/4×64 qhw=33 " +
		"avg=1.5µs max=2ms p50=1µs p95=3µs p99=9µs " +
		"panics=1 restarts=12 quarantined=13 sink[dropped=14 panics=15] " +
		"gen=6 swaps=5 retired=16 decisions=11 " +
		"traces[stored=18 sampled_out=19] " +
		"shed[calls=17 rate=0.1250 missp=0.0625 engaged=true]"
	if got := st.String(); got != want {
		t.Errorf("Stats.String() =\n  %q\nwant\n  %q", got, want)
	}
}

// TestStatsStringCoversEveryField perturbs each Stats field via reflection
// and requires the rendering to change: a field added to Stats but not to
// String() fails CI instead of shipping an invisible counter.
func TestStatsStringCoversEveryField(t *testing.T) {
	base := Stats{}
	baseline := base.String()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		st := Stats{}
		v := reflect.ValueOf(&st).Elem().Field(i)
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(99)
		case reflect.Int, reflect.Int64:
			v.SetInt(99)
		case reflect.Float64:
			v.SetFloat(0.99)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Array:
			v.Index(0).SetUint(99) // FlagNormal still feeds AlertTotal
		default:
			t.Fatalf("field %s has unhandled kind %s; extend this test", f.Name, v.Kind())
		}
		if st.String() == baseline {
			t.Errorf("perturbing Stats.%s does not change String(); the field is not surfaced", f.Name)
		}
	}
}

// TestWritePrometheusCoversEveryCounter holds both expositions to the
// counters snapshot through one map: a lone Runtime's /metrics and a
// fleet's, which renders every shard through WritePrometheusSet under a
// tenant label. Every CountersSnapshot field must be mapped in
// countersMetric and every entry must name a live field; every mapped
// family must appear in both renderings; and the labelled rendering must
// carry exactly the families of the unlabelled one, each once, with every
// runtime sample labelled and attributed to its own runtime, not pooled.
// Adding a counter without exporting it, or exporting a family only one
// way, fails here.
func TestWritePrometheusCoversEveryCounter(t *testing.T) {
	typ := reflect.TypeOf(metrics.CountersSnapshot{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := countersMetric[name]; !ok {
			t.Errorf("CountersSnapshot.%s has no entry in countersMetric; extend the map and WritePrometheusSet", name)
		}
	}
	for name := range countersMetric {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("countersMetric maps %q, which is no longer a CountersSnapshot field", name)
		}
	}

	p, traces := trainAppH(t)
	feed := func(rt *Runtime, tr collector.Trace) {
		s := rt.Session("prom-test")
		for _, c := range tr {
			if err := s.Observe(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	rt := New(p, WithWorkers(2), WithQueueDepth(64))
	defer rt.Close()
	feed(rt, traces[0])
	other := New(p, WithWorkers(1))
	defer other.Close()
	feed(other, traces[1])

	var single, set, goRT bytes.Buffer
	if err := rt.WritePrometheus(&single); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheusSet(&set,
		Labelled{Labels: [][2]string{{"tenant", "alpha"}}, Runtime: rt},
		Labelled{Labels: [][2]string{{"tenant", "beta"}}, Runtime: other}); err != nil {
		t.Fatal(err)
	}
	if err := obsv.WriteGoRuntimeProm(&goRT, obsv.BuildInfo{}); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{single.String(), set.String()} {
		for field, family := range countersMetric {
			if !strings.Contains(out, family) {
				t.Errorf("family %q (CountersSnapshot.%s) missing from exposition", family, field)
			}
		}
		for _, extra := range []string{
			"adprom_profile_generation", "adprom_workers",
			"adprom_queue_capacity", "adprom_queue_depth",
			"adprom_decisions_recorded_total", "adprom_decisions_sampled_out_total",
			"adprom_traces_stored_total", "adprom_traces_sampled_out_total",
			"adprom_worker_queue_depth", "adprom_shed_rate",
			"adprom_shed_estimated_miss_probability", "adprom_shed_engaged",
			"adprom_shed_decisions_total",
		} {
			if !strings.Contains(out, "# TYPE "+extra+" ") {
				t.Errorf("family %q missing from exposition", extra)
			}
		}
		checkExposition(t, out)
	}

	// The labelled rendering carries the lone runtime's families, each once.
	unlabelled, labelled, process := promFamilies(single.String()), promFamilies(set.String()), promFamilies(goRT.String())
	for name := range unlabelled {
		if labelled[name] != 1 {
			t.Errorf("family %s rendered %d times on the labelled scrape, want once", name, labelled[name])
		}
	}
	for name := range labelled {
		if unlabelled[name] == 0 {
			t.Errorf("family %s rendered only on the labelled scrape", name)
		}
	}
	// Every sample of a runtime family (not the process-wide Go families)
	// carries its runtime's label first.
	for _, line := range strings.Split(strings.TrimRight(set.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if process[strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")] > 0 || process[name] > 0 {
			continue
		}
		if !strings.HasPrefix(line, name+`{tenant="alpha"`) && !strings.HasPrefix(line, name+`{tenant="beta"`) {
			t.Errorf("runtime sample without a tenant label: %q", line)
		}
	}
	for _, want := range []string{
		"adprom_calls_total " + strconv.Itoa(len(traces[0])) + "\n",
	} {
		if !strings.Contains(single.String(), want) {
			t.Errorf("lone runtime exposition lacks %q", want)
		}
	}
	for _, want := range []string{
		`adprom_calls_total{tenant="alpha"} ` + strconv.Itoa(len(traces[0])) + "\n",
		`adprom_calls_total{tenant="beta"} ` + strconv.Itoa(len(traces[1])) + "\n",
		`adprom_worker_queue_depth{tenant="alpha",worker="1"} `,
		`adprom_alerts_total{tenant="beta",flag="DL"} `,
	} {
		if !strings.Contains(set.String(), want) {
			t.Errorf("labelled exposition lacks %q", want)
		}
	}
}

// promFamilies counts the # TYPE headers per family in an exposition.
func promFamilies(out string) map[string]int {
	fams := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams[strings.Fields(rest)[0]]++
		}
	}
	return fams
}

// checkExposition requires every sample line to be `name[{labels}] value`
// with a parseable value.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		if v := line[sp+1:]; v != "+Inf" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("line %d: unparseable value %q: %v", ln+1, v, err)
			}
		}
	}
}

// TestDecisionProvenance is the acceptance test for the provenance ring: an
// alert raised during detection must surface in Decisions() with its full
// context (session, window offset, score vs threshold, flag, generation, and
// the triggering call's label/caller).
func TestDecisionProvenance(t *testing.T) {
	p, traces := trainAppH(t)
	const sessions = 12
	streams := streamSet(traces, sessions)

	rt := New(p,
		WithWorkers(4), WithQueueDepth(64),
		WithDecisionLog(4096, 1)) // record everything: the assertions are exact
	defer rt.Close()

	var wg sync.WaitGroup
	wantAlerts := make([]int, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(fmt.Sprintf("s%02d", i))
			for _, c := range streams[i] {
				if err := s.Observe(c); err != nil {
					t.Errorf("session %d: %v", i, err)
					return
				}
			}
			alerts, err := s.Close()
			if err != nil {
				t.Errorf("session %d close: %v", i, err)
				return
			}
			wantAlerts[i] = len(alerts)
		}(i)
	}
	wg.Wait()

	var total int
	for _, n := range wantAlerts {
		total += n
	}
	if total == 0 {
		t.Fatal("no alerts raised; the provenance check is vacuous")
	}

	ds := rt.Decisions(0)
	if len(ds) == 0 {
		t.Fatal("decision ring is empty")
	}
	flagged := map[string]int{}
	for _, d := range ds {
		if d.Session == "" || d.Generation == 0 {
			t.Fatalf("decision missing identity: %+v", d)
		}
		if d.UnixNanos == 0 {
			t.Fatalf("decision missing the op timestamp: %+v", d)
		}
		if !d.Flagged {
			if d.Flag != detect.FlagNormal.String() {
				t.Fatalf("unflagged decision carries flag %q", d.Flag)
			}
			continue
		}
		flagged[d.Session]++
		if d.Flag == detect.FlagNormal.String() {
			t.Fatalf("flagged decision carries the Normal flag: %+v", d)
		}
		if d.Label == "" || d.Caller == "" {
			t.Errorf("alert decision lacks the triggering call context: %+v", d)
		}
		if d.Flag != detect.FlagOutOfContext.String() && d.Score > d.Threshold {
			t.Errorf("probability alert scored %g above its threshold %g: %+v", d.Score, d.Threshold, d)
		}
	}
	var gotFlagged int
	for _, n := range flagged {
		gotFlagged += n
	}
	if gotFlagged != total {
		t.Errorf("provenance holds %d alert decisions, want every one of the %d alerts", gotFlagged, total)
	}

	st := rt.Stats()
	if st.DecisionsRecorded != uint64(len(ds)) {
		t.Errorf("Stats.DecisionsRecorded = %d, ring holds %d", st.DecisionsRecorded, len(ds))
	}
	h := rt.Histograms()
	if h.Observe.Count != st.Calls {
		t.Errorf("observe histogram count %d diverged from calls %d", h.Observe.Count, st.Calls)
	}
	if h.Flush.Count == 0 {
		t.Error("flush histogram empty after session closes")
	}
	if st.P50Latency <= 0 || st.P95Latency < st.P50Latency || st.MaxLatency < st.P99Latency {
		t.Errorf("latency percentiles inconsistent: p50=%s p95=%s p99=%s max=%s",
			st.P50Latency, st.P95Latency, st.P99Latency, st.MaxLatency)
	}
}

// TestDecisionLogDisabled checks the kill switch: WithDecisionLog(-1, 0)
// leaves no provenance and costs the hot path nothing.
func TestDecisionLogDisabled(t *testing.T) {
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(2), WithDecisionLog(-1, 0))
	defer rt.Close()
	s := rt.Session("quiet")
	for _, c := range traces[0] {
		if err := s.Observe(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ds := rt.Decisions(0); len(ds) != 0 {
		t.Errorf("disabled decision log still holds %d records", len(ds))
	}
	if st := rt.Stats(); st.DecisionsRecorded != 0 {
		t.Errorf("DecisionsRecorded = %d with the log disabled", st.DecisionsRecorded)
	}
}

func TestReadyProbe(t *testing.T) {
	p, _ := trainAppH(t)
	rt := New(p)
	if err := rt.Ready(); err != nil {
		t.Errorf("fresh runtime not ready: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Ready(); !errors.Is(err, ErrClosed) {
		t.Errorf("closed runtime Ready() = %v, want ErrClosed", err)
	}
}
