package runtime

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/profile"
	"adprom/internal/shed"
	"adprom/internal/sqlchan"
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

var appBOnce struct {
	sync.Once
	p    *profile.Profile
	sqlP *sqlchan.Profile
	runs []collector.Trace
	err  error
}

// trainAppB trains the banking app's HMM and SQL-channel profiles once and
// returns them with its clean runs followed by runs of every SQL-channel
// attack, so a replay judges windows of both channels.
func trainAppB(t *testing.T) (*profile.Profile, *sqlchan.Profile, []collector.Trace) {
	t.Helper()
	appBOnce.Do(func() {
		app := dataset.AppB()
		runs, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			appBOnce.err = err
			return
		}
		p, _, err := core.Train(app.Prog, runs, profile.Options{
			Train: hmm.TrainOptions{MaxIters: 4}, MaxTrainWindows: 1500})
		if err != nil {
			appBOnce.err = err
			return
		}
		sqlP, err := sqlchan.Train(runs, sqlchan.Options{SensitiveColumns: []string{"name", "balance"}})
		if err != nil {
			appBOnce.err = err
			return
		}
		for _, atk := range attack.SQLChannelAttacks() {
			prog, err := atk.Apply(app.Prog)
			if err != nil {
				appBOnce.err = err
				return
			}
			cases := atk.Cases
			if cases == nil {
				cases = app.TestCases
			}
			for _, tc := range cases {
				tr, err := app.RunCase(prog, tc, collector.ModeADPROM, atk.Setup)
				if err != nil {
					appBOnce.err = err
					return
				}
				runs = append(runs, tr)
			}
		}
		appBOnce.p, appBOnce.sqlP, appBOnce.runs = p, sqlP, runs
	})
	if appBOnce.err != nil {
		t.Fatal(appBOnce.err)
	}
	return appBOnce.p, appBOnce.sqlP, appBOnce.runs
}

// TestScoreSpanMatchesEngineJudgements pins the score span's judgement
// summary on a traced two-channel runtime: for every op, the windows it
// judged and each channel's latest score and threshold equal, bit for bit,
// what a sequential engine's judge hook saw for the same op, and a channel
// that judged no window in the op contributes no attributes.
func TestScoreSpanMatchesEngineJudgements(t *testing.T) {
	p, sqlP, runs := trainAppB(t)
	rt := New(p, WithWorkers(2), WithSQLChannel(sqlP), WithTracing(4*len(runs), 1))
	for i, run := range runs {
		s := rt.Session(fmt.Sprintf("run-%03d", i))
		if err := s.ObserveBatch(run); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil { // every op's trace has finished
		t.Fatal(err)
	}
	ops := map[string]*trace.Trace{}
	traces := rt.Traces(0)
	for i := range traces {
		tr := &traces[i]
		ops[tr.Session+"/"+tr.Spans[0].Stage] = tr
	}

	judged := map[string]int{}
	for i, run := range runs {
		name := fmt.Sprintf("run-%03d", i)
		e := detect.NewEngine(p)
		e.SetSQLChannel(sqlchan.NewScorer(sqlP), detect.FusionConfig{})
		var js []detect.Judgement
		e.SetJudgeHook(func(j detect.Judgement) { js = append(js, j) })
		for _, op := range []struct {
			stage string
			run   func()
		}{
			{"observe", func() { e.ObserveBatch(run) }},
			{"close", func() { e.Flush() }},
		} {
			js = js[:0]
			op.run()
			tr := ops[name+"/"+op.stage]
			if tr == nil {
				t.Fatalf("%s: no %s trace retained", name, op.stage)
			}
			score := tr.Span("score")
			if score == nil {
				t.Fatalf("%s %s: no score span", name, op.stage)
			}
			if w, _ := score.Attr("windows"); w.Int != int64(len(js)) {
				t.Errorf("%s %s: score span windows=%d, the engine judged %d", name, op.stage, w.Int, len(js))
			}
			last := map[string]detect.Judgement{}
			for _, j := range js {
				last[j.Channel] = j
			}
			for _, ch := range []string{detect.ChannelHMM, detect.ChannelSQL} {
				j, ok := last[ch]
				sc, okS := score.Attr(ch + "_score")
				th, okT := score.Attr(ch + "_threshold")
				if okS != ok || okT != ok {
					t.Errorf("%s %s: %s attributes present=%v/%v, channel judged=%v", name, op.stage, ch, okS, okT, ok)
					continue
				}
				if !ok {
					continue
				}
				if math.Float64bits(sc.Float) != math.Float64bits(j.Score) ||
					math.Float64bits(th.Float) != math.Float64bits(j.Threshold) {
					t.Errorf("%s %s: span %s score/threshold %v/%v, the engine judged %v/%v",
						name, op.stage, ch, sc.Float, th.Float, j.Score, j.Threshold)
				}
				judged[ch]++
			}
		}
	}
	t.Logf("%d runs; ops with a judgement per channel: %v", len(runs), judged)
	if judged[detect.ChannelHMM] == 0 || judged[detect.ChannelSQL] == 0 {
		t.Fatalf("ops with a judgement per channel: %v; both channels must be checked", judged)
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
