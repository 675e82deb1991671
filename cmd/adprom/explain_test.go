package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/obsv"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/sqlchan"
)

// TestExplainFusedAlert drives the full forensic loop the explain command
// exists for: a two-channel runtime with tracing on judges the
// cardinality-mimicry attack (invisible to the HMM, caught by the SQL
// channel), and `explain <alert-seq>` against the live introspection
// endpoint must reconstruct the complete stage timeline — admission,
// scoring with both channels' score/threshold margins, the profile
// generation — plus the correlated judgement evidence. Trace-ID lookup and
// the offline decision-log mode must explain the same alert.
func TestExplainFusedAlert(t *testing.T) {
	app := dataset.AppB()
	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := core.Train(app.Prog, traces, profile.Options{
		Train: hmm.TrainOptions{MaxIters: 4}, MaxTrainWindows: 1500})
	if err != nil {
		t.Fatal(err)
	}
	sqlProf, err := sqlchan.Train(traces, sqlchan.Options{SensitiveColumns: []string{"name", "balance"}})
	if err != nil {
		t.Fatal(err)
	}
	var mim attack.Attack
	for _, a := range attack.SQLChannelAttacks() {
		if a.Name == "cardinality-mimicry" {
			mim = a
		}
	}
	if mim.Name == "" {
		t.Fatal("cardinality-mimicry attack not bundled")
	}
	prog, err := mim.Apply(app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	mimicTrace, err := app.RunCase(prog, mim.Cases[0], collector.ModeADPROM, mim.Setup)
	if err != nil {
		t.Fatal(err)
	}

	rt := runtime.New(p,
		runtime.WithWorkers(2),
		runtime.WithSQLChannel(sqlProf),
		runtime.WithFusion(detect.FusionConfig{}),
		runtime.WithTracing(64, 1),
		runtime.WithAlertFunc(func(string, detect.Alert) {}),
	)
	defer rt.Close()
	s := rt.Session("mimic-1")
	if err := s.ObserveBatch(mimicTrace); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var alert obsv.Decision
	deadline := time.Now().Add(5 * time.Second)
	for alert.Trace == "" {
		for _, d := range rt.Decisions(0) {
			if d.Flagged && d.Trace != "" {
				alert = d
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flagged decision with a trace ID; decisions: %+v", rt.Decisions(0))
		}
		time.Sleep(5 * time.Millisecond)
	}

	ts := httptest.NewServer(obsv.NewHandler(rt.Introspection()))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	var out bytes.Buffer
	if err := explainLive(&out, addr, "", strconv.Itoa(alert.Seq)); err != nil {
		t.Fatalf("explain by seq: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"ALERT",         // the trace header marks the alert-bearing op
		"flush",         // root span: the op that judged the partial window
		"score",         // engine scoring stage
		"score.sql",     // the channel that caught the mimicry
		"threshold=",    // per-channel judgement evidence on the span
		"fusion",        // the fused judge's span with both margins
		"hmm_margin=",   // fusion evidence: HMM channel margin
		"sql_margin=",   // fusion evidence: SQL channel margin
		"sink",          // alert delivery stage
		"generation=",   // the profile generation that judged the window
		"sql:   score=", // judgement block: SQL margin vs threshold
		"margin=",       // explicit score/threshold margins
		"verdict=",      // the decision's flag
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
	// The SQL channel raised the alert after the HMM had judged the run's
	// windows, so the decision carries the HMM's latest judgement, and its
	// margin is the one the fusion span records.
	hmmLine := regexp.MustCompile(`hmm:   score=\S+ threshold=\S+ margin=(\S+)`).FindStringSubmatch(text)
	if hmmLine == nil {
		t.Fatalf("explain output prints no HMM judgement for the SQL-channel alert:\n%s", text)
	}
	margin, err := strconv.ParseFloat(hmmLine[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	fused := false
	for _, m := range regexp.MustCompile(`hmm_margin=(\S+)`).FindAllStringSubmatch(text, -1) {
		if v, err := strconv.ParseFloat(m[1], 64); err == nil && math.Abs(v-margin) < 5e-7 {
			fused = true
		}
	}
	if !fused {
		t.Errorf("the HMM judgement's margin %v matches no fusion span's hmm_margin:\n%s", margin, text)
	}

	// The same alert resolved by trace ID renders the same timeline.
	out.Reset()
	if err := explainLive(&out, addr, "", alert.Trace); err != nil {
		t.Fatalf("explain by trace ID: %v", err)
	}
	if !strings.Contains(out.String(), "trace "+alert.Trace) {
		t.Errorf("trace-ID lookup did not render trace %s:\n%s", alert.Trace, out.String())
	}

	// Offline mode: a recorded /decisions capture still explains the
	// judgement (minus the span timeline, which only a live -trace server
	// holds).
	capture := filepath.Join(t.TempDir(), "decisions.json")
	data, err := json.Marshal(rt.Decisions(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(capture, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := explainLog(&out, capture, strconv.Itoa(alert.Seq)); err != nil {
		t.Fatalf("explain from capture: %v", err)
	}
	for _, want := range []string{"judgements only", "sql:   score=", "generation="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("offline explain missing %q:\n%s", want, out.String())
		}
	}

	// An unknown key fails with a diagnosable error, not an empty render.
	if err := explainLive(&out, addr, "", "no-such-trace"); err == nil {
		t.Error("explain of an unknown trace ID succeeded")
	}
}

// TestExplainRendersOnlyJudgedChannels pins the judgement block to the
// channels a decision carries: an alert the SQL channel raised alone prints
// no HMM line (its HMM fields are empty, not a zero score), while an HMM
// judgement still prints its score against the threshold.
func TestExplainRendersOnlyJudgedChannels(t *testing.T) {
	var out bytes.Buffer
	renderDecisions(&out, []obsv.Decision{{
		Session: "mimic-1", Seq: 31, Flag: "Anomalous", Flagged: true, Generation: 1,
		Channels: []string{"sql", "fusion"}, SQLScore: -6.3, SQLThreshold: -4.6, FusedScore: 0.73,
	}})
	if text := out.String(); strings.Contains(text, "hmm:") || !strings.Contains(text, "sql:   score=") {
		t.Errorf("SQL-only decision rendered:\n%s", text)
	}

	out.Reset()
	renderDecisions(&out, []obsv.Decision{{
		Session: "s", Seq: 12, Flag: "Anomalous", Flagged: true, Generation: 1,
		Score: -9.5, Threshold: -7.25, Channels: []string{"hmm"},
	}})
	if text := out.String(); !strings.Contains(text, "hmm:   score=-9.500000 threshold=-7.250000 margin=2.250000") ||
		strings.Contains(text, "sql:") {
		t.Errorf("HMM decision rendered:\n%s", text)
	}
}

// TestExplainRefusesAmbiguousSeq: seq numbers are per session, so when two
// sessions raised an alert at the same seq, resolving the bare number must
// fail and name each (session, trace) pair, live and from a capture alike,
// instead of explaining one of them silently.
func TestExplainRefusesAmbiguousSeq(t *testing.T) {
	ds := []obsv.Decision{
		{Session: "b", Seq: 31, Flag: "Anomalous", Flagged: true, Generation: 1, Trace: "trace-b"},
		{Session: "a", Seq: 31, Flag: "DL", Flagged: true, Generation: 1, Trace: "trace-a"},
		{Session: "a", Seq: 30, Flag: "Normal", Generation: 1},
	}
	data, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/decisions" {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	}))
	defer ts.Close()
	capture := filepath.Join(t.TempDir(), "decisions.json")
	if err := os.WriteFile(capture, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	for mode, explain := range map[string]func() error{
		"live": func() error { return explainLive(&out, strings.TrimPrefix(ts.URL, "http://"), "", "31") },
		"log":  func() error { return explainLog(&out, capture, "31") },
	} {
		err := explain()
		if err == nil {
			t.Errorf("%s: ambiguous seq 31 resolved to one alert:\n%s", mode, out.String())
			continue
		}
		for _, want := range []string{"session=a trace=trace-a", "session=b trace=trace-b"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not name %q: %v", mode, want, err)
			}
		}
	}
}

// TestExplainRefusesAmbiguousSampledSeq: when no alert has the seq, sampled
// Normal judgements from more than one session make it ambiguous too, live
// and from a capture alike, and the refusal names each session; a seq only
// one session sampled still renders from a capture.
func TestExplainRefusesAmbiguousSampledSeq(t *testing.T) {
	ds := []obsv.Decision{
		{Session: "b", Seq: 30, Flag: "Normal", Generation: 1},
		{Session: "a", Seq: 30, Flag: "Normal", Generation: 1},
		{Session: "a", Seq: 29, Flag: "Normal", Generation: 1},
	}
	data, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/decisions" {
			http.NotFound(w, r)
			return
		}
		w.Write(data)
	}))
	defer ts.Close()
	capture := filepath.Join(t.TempDir(), "decisions.json")
	if err := os.WriteFile(capture, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	for mode, explain := range map[string]func() error{
		"live": func() error { return explainLive(&out, strings.TrimPrefix(ts.URL, "http://"), "", "30") },
		"log":  func() error { return explainLog(&out, capture, "30") },
	} {
		err := explain()
		if err == nil || !strings.Contains(err.Error(), "ambiguous") {
			t.Errorf("%s: seq 30, sampled by sessions a and b, gave %v:\n%s", mode, err, out.String())
			continue
		}
		for _, want := range []string{"session=a", "session=b"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error does not name %q: %v", mode, want, err)
			}
		}
	}

	out.Reset()
	if err := explainLog(&out, capture, "29"); err != nil {
		t.Fatalf("seq 29, sampled by session a alone: %v", err)
	}
	if !strings.Contains(out.String(), "judgement seq=29 session=a verdict=normal") {
		t.Errorf("seq 29 rendered:\n%s", out.String())
	}
}
