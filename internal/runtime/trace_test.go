package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/detect"
	"adprom/internal/shed"
	"adprom/internal/trace"
)

// attackStream returns a base training trace with a foreign burst appended,
// guaranteed to cross the HMM threshold.
func attackStream(traces []collector.Trace) collector.Trace {
	mutated := append(collector.Trace{}, traces[0]...)
	for k := 0; k < 8; k++ {
		mutated = append(mutated, collector.Call{
			Label: "curl_easy_perform", Name: "curl_easy_perform", Caller: "main",
		})
	}
	return mutated
}

// waitTrace polls for a committed trace by ID: an alert trace only commits
// after the async sink delivery releases its reference.
func waitTrace(t *testing.T, rt *Runtime, id string) trace.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if tr, ok := rt.TraceByID(id); ok {
			return tr
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("trace %s never committed", id)
	return trace.Trace{}
}

// TestTracingEndToEnd drives an attacked stream through a traced runtime and
// checks the alert trace's complete stage timeline: root span, shed
// admission, engine scoring with the flagged window's judgement span, and
// the async sink delivery span — plus trace-ID correlation on the decision
// log and the latency-histogram exemplar.
func TestTracingEndToEnd(t *testing.T) {
	p, traces := trainAppH(t)
	delivered := make(chan detect.Alert, 64)
	rt := New(p,
		WithWorkers(2),
		WithTracing(64, 1),
		WithAlertFunc(func(session string, a detect.Alert) { delivered <- a }),
	)
	defer rt.Close()

	// The whole attacked stream as one batch: one trace covers the op that
	// raises the alerts.
	ta := rt.BeginTrace(trace.Context{ID: "attack-op", Remote: "10.0.0.9:1234", Codec: "test"}, "victim", "ingest")
	if ta == nil {
		t.Fatal("BeginTrace returned nil with tracing enabled")
	}
	s := rt.Session("victim")
	if err := s.ObserveBatchTraced(context.Background(), ta, attackStream(traces)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("alert never delivered to sink")
	}

	tr := waitTrace(t, rt, "attack-op")
	if !tr.Alert {
		t.Error("alert-raising op's trace not marked Alert")
	}
	if tr.Session != "victim" {
		t.Errorf("trace session = %q", tr.Session)
	}
	if tr.Spans[0].Stage != "ingest" || tr.Spans[0].ID != trace.RootSpan {
		t.Fatalf("root span = %+v", tr.Spans[0])
	}
	if a, ok := tr.Spans[0].Attr("remote"); !ok || a.Str != "10.0.0.9:1234" {
		t.Errorf("root span lost the remote attr: %+v", tr.Spans[0].Attrs)
	}

	admit := tr.Span("admit")
	if admit == nil {
		t.Fatal("no admit span")
	}
	if v, ok := admit.Attr("verdict"); !ok || v.Str != "admitted" {
		t.Errorf("admit verdict = %+v", admit.Attrs)
	}
	if v, ok := admit.Attr("policy"); !ok || v.Str != "block" {
		t.Errorf("admit policy = %+v", admit.Attrs)
	}
	if _, ok := admit.Attr("queue_depth"); !ok {
		t.Error("admit span missing queue_depth")
	}

	score := tr.Span("score")
	if score == nil {
		t.Fatal("no score span")
	}
	if score.Parent != trace.RootSpan {
		t.Errorf("score span parent = %d", score.Parent)
	}
	if v, ok := score.Attr("alerts"); !ok || v.Int == 0 {
		t.Errorf("score span alerts attr = %+v", score.Attrs)
	}
	if v, ok := score.Attr("scorer"); !ok || v.Str != "exact" {
		t.Errorf("score span scorer attr = %+v", score.Attrs)
	}
	if v, ok := score.Attr("generation"); !ok || v.Int != 1 {
		t.Errorf("score span generation attr = %+v", score.Attrs)
	}

	hmmSpan := tr.Span("score.hmm")
	if hmmSpan == nil {
		t.Fatal("no score.hmm judgement span for the flagged window")
	}
	if hmmSpan.Parent != score.ID {
		t.Errorf("score.hmm parent = %d, want %d", hmmSpan.Parent, score.ID)
	}
	sc, okS := hmmSpan.Attr("score")
	th, okT := hmmSpan.Attr("threshold")
	if !okS || !okT || sc.Float >= th.Float {
		t.Errorf("flagged judgement span score/threshold: %+v", hmmSpan.Attrs)
	}

	sink := tr.Span("sink")
	if sink == nil {
		t.Fatal("no sink span — delivery reference did not keep the trace open")
	}
	if v, ok := sink.Attr("verdict"); !ok || v.Str != "delivered" {
		t.Errorf("sink verdict = %+v", sink.Attrs)
	}

	// Correlation: every flagged decision of the op carries the trace ID, and
	// the observe-latency histogram's exemplar points at the alert trace.
	found := false
	for _, d := range rt.Decisions(0) {
		if d.Flagged && d.Session == "victim" {
			if d.Trace != "attack-op" {
				t.Errorf("flagged decision trace = %q, want attack-op", d.Trace)
			}
			found = true
		}
	}
	if !found {
		t.Error("no flagged decision recorded for the traced op")
	}
	if ex := rt.Histograms().Observe.Exemplar; ex != "attack-op" {
		t.Errorf("observe histogram exemplar = %q, want attack-op", ex)
	}
}

// TestTracingHealthySampling pins the healthy-trace retention gate: 1-in-N
// sampling with exact counters on a single sequential session.
func TestTracingHealthySampling(t *testing.T) {
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(1), WithTracing(128, 4))
	s := rt.Session("healthy")
	const ops = 16
	for i := 0; i < ops; i++ {
		if err := s.ObserveBatch(traces[0]); err != nil {
			t.Fatal(err)
		}
		// Reset the window between replays so the junction of two healthy
		// traces never forms an anomalous (alert-marking) window.
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Every op is traced — observes, the flushes judging each partial
	// window, and the final close — and all were healthy, so the 1-in-4
	// gate applies to all of them in sequence.
	const total = ops + ops + 1
	st := rt.Stats()
	if st.TracesStored != total/4 {
		t.Errorf("TracesStored = %d, want %d", st.TracesStored, total/4)
	}
	if st.TracesSampledOut != total-total/4 {
		t.Errorf("TracesSampledOut = %d, want %d", st.TracesSampledOut, total-total/4)
	}
	if got := len(rt.Traces(0)); got != total/4 {
		t.Errorf("retained %d traces, want %d", got, total/4)
	}
}

// TestDecisionTraceIDsResolve pins the decision log's trace correlation:
// only alert traces are pinned in the store, so only alert decisions carry
// a trace ID, and every ID on the log resolves through TraceByID. Sampled
// Normal judgements and the healthy ops behind them fall to independent
// 1-in-16 gates, so an ID on one would mostly lead nowhere.
func TestDecisionTraceIDsResolve(t *testing.T) {
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(2), WithTracing(1024, 16))
	defer rt.Close()
	attacked := attackStream(traces)
	for pass := 0; pass < 20; pass++ {
		for i, tr := range traces {
			if i%4 == 3 {
				tr = attacked
			}
			s := rt.Session(fmt.Sprintf("run-%02d", i))
			if err := s.ObserveBatch(tr); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var normal, flaggedWithID int
	for _, d := range rt.Decisions(0) {
		if !d.Flagged {
			normal++
		}
		if d.Trace == "" {
			continue
		}
		if _, ok := rt.TraceByID(d.Trace); !ok {
			t.Errorf("decision seq=%d session=%s names trace %s, which the store does not hold", d.Seq, d.Session, d.Trace)
		}
		if !d.Flagged {
			t.Errorf("unflagged decision seq=%d session=%s carries trace %s", d.Seq, d.Session, d.Trace)
			continue
		}
		flaggedWithID++
	}
	if normal == 0 {
		t.Fatal("no sampled Normal decision; the healthy half of the check is vacuous")
	}
	if flaggedWithID == 0 {
		t.Fatal("no flagged decision carries a trace ID")
	}
}

// TestTracingDisabledBitIdentical checks the kill switch: without WithTracing
// the runtime builds no traces and the decision log's JSON encoding contains
// no trace key at all — bit-identical to a trace-free build.
func TestTracingDisabledBitIdentical(t *testing.T) {
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(2), WithDecisionLog(64, 1))
	defer rt.Close()
	if rt.TracingEnabled() {
		t.Fatal("tracing enabled without WithTracing")
	}
	if ta := rt.BeginTrace(trace.Context{ID: "x"}, "s", "ingest"); ta != nil {
		t.Fatal("BeginTrace must return nil with tracing disabled")
	}
	s := rt.Session("plain")
	if err := s.ObserveBatch(attackStream(traces)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Traces(0); got != nil {
		t.Errorf("disabled tracing retained %d traces", len(got))
	}
	st := rt.Stats()
	if st.TracesStored != 0 || st.TracesSampledOut != 0 {
		t.Errorf("trace counters nonzero with tracing off: %d/%d", st.TracesStored, st.TracesSampledOut)
	}
	ds := rt.Decisions(0)
	if len(ds) == 0 {
		t.Fatal("no decisions recorded")
	}
	data, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"trace"`) {
		t.Error("decision log JSON carries a trace key with tracing disabled")
	}
	if ex := rt.Histograms().Observe.Exemplar; ex != "" {
		t.Errorf("histogram exemplar %q with tracing disabled", ex)
	}
}

// TestTracingDroppedOpFinishesTrace checks that an op rejected at admission
// still produces a complete, committed trace whose admit span carries the
// rejection verdict — the producer, not the worker, owns the trace when the
// op never reaches a queue.
func TestTracingDroppedOpFinishesTrace(t *testing.T) {
	p, traces := trainAppH(t)
	block := make(chan struct{})
	rt := New(p,
		WithWorkers(1),
		WithQueueDepth(1),
		WithTracing(64, 1),
		WithShedConfig(shed.Config{Seed: 1}),
		WithWorkerHook(func(int, string) { <-block }),
	)
	defer rt.Close()
	defer close(block)

	s := rt.Session("noisy")
	// The worker blocks inside the hook after dequeuing the first op, so the
	// 1-call budget saturates within a few observes and one must be shed.
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		err = s.Observe(traces[0][i%len(traces[0])])
	}
	if err == nil {
		t.Fatal("queue never saturated")
	}

	var admit *trace.Span
	for _, tr := range rt.Traces(0) {
		if a := tr.Span("admit"); a != nil {
			if v, ok := a.Attr("verdict"); ok && v.Str == "shed" {
				admit = a
				break
			}
		}
	}
	if admit == nil {
		t.Fatal("no committed trace carries a shed admit verdict")
	}
	if v, ok := admit.Attr("policy"); !ok || v.Str != "shed-by-risk" {
		t.Errorf("admit policy attr = %+v", admit.Attrs)
	}
}
