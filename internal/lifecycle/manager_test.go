package lifecycle

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/hmm"
	"adprom/internal/profile"
	"adprom/internal/runtime"
)

// lockedBuffer lets a slog JSON handler and the test share a buffer across
// the manager goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// testLog writes each slog record to the test log.
type testLog struct{ t *testing.T }

func (w testLog) Write(p []byte) (int, error) {
	w.t.Log(string(bytes.TrimSuffix(p, []byte("\n"))))
	return len(p), nil
}

func (b *lockedBuffer) lines() []map[string]any {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	for _, line := range bytes.Split(b.buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if json.Unmarshal(line, &m) == nil {
			out = append(out, m)
		}
	}
	return out
}

// driftTraces injects a systematic benign behavioural shift into every
// trace: a telemetry call unknown to the original alphabet every stride
// calls — an application update changing its library-call mix, not an
// attack.
func driftTraces(traces []collector.Trace, stride int) []collector.Trace {
	out := make([]collector.Trace, len(traces))
	for i, tr := range traces {
		var mutated collector.Trace
		for j, c := range tr {
			mutated = append(mutated, c)
			if j%stride == stride-1 {
				mutated = append(mutated, collector.Call{
					Label: "sd_journal_send", Name: "sd_journal_send", Caller: c.Caller,
				})
			}
		}
		out[i] = mutated
	}
	return out
}

func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if stdruntime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := stdruntime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, stdruntime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLifecycleDriftRetrainSwapE2E is the acceptance criterion end to end: a
// synthetically drifted stream floods a served stale profile with false
// positives, the drift watcher confirms, a background retrain (warm-started
// from the serving model, fed by the judged-Normal trace ring) produces the
// next generation, the manager hot-swaps it in — and the false-positive rate
// is measurably restored with zero service interruption (no drops, panics,
// or quarantines while detection keeps running).
func TestLifecycleDriftRetrainSwapE2E(t *testing.T) {
	before := stdruntime.NumGoroutine()
	base, traces := trainAppH(t)
	drifted := driftTraces(traces, 5)
	logBuf := &lockedBuffer{}

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Config{
		Drift: DriftConfig{
			SampleEvery: 1, Window: 32, Warmup: 32,
			PHDelta: 0.05, PHLambda: 3, RateMargin: 0.25,
		},
		Retrain:      profile.RetrainOptions{Train: hmm.TrainOptions{MaxIters: 6}},
		RingCapacity: len(drifted) + 4,
		MinTraces:    minInt(len(drifted), 4),
		Registry:     reg,
		Logger:       slog.New(slog.NewJSONHandler(io.MultiWriter(logBuf, testLog{t}), nil)),
	})
	rt := runtime.New(base,
		runtime.WithWorkers(2),
		runtime.WithJudgeObserver(mgr.Observe),
		runtime.WithAttach(mgr.Bind),
	)
	mgr.Start()
	defer mgr.Stop()
	defer rt.Close()

	// Phase 1 — establish the baseline on pre-drift traffic.
	s := rt.Session("app")
	for !mgr.DriftState().Warm {
		for _, tr := range traces {
			if _, err := s.ObserveTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	warmAlerts := rt.Stats().AlertTotal()

	// Phase 2 — the application drifts. The administrator approves the new
	// behaviour as legitimate (RecordTrace); the live stream keeps flowing
	// through the same runtime uninterrupted while the stale profile flags it.
	for _, tr := range drifted {
		mgr.RecordTrace(tr)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for rt.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no hot-swap after drift: runtime %s, manager %+v, drift %+v",
				rt.Stats(), mgr.Stats(), mgr.DriftState())
		}
		for _, tr := range drifted {
			if _, err := s.ObserveTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	staleAlerts := rt.Stats().AlertTotal() - warmAlerts
	if staleAlerts == 0 {
		t.Fatal("stale profile raised no false positives on drifted traffic; the premise is vacuous")
	}

	// Phase 3 — post-swap, the drifted-but-benign traffic is clean again:
	// a fresh session on the new generation raises zero alerts.
	fresh := rt.Session("post-swap")
	for _, tr := range drifted {
		history, err := fresh.ObserveTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(history) != 0 {
			t.Fatalf("retrained generation still flags drifted-normal traffic: %+v", history[0])
		}
	}
	if g := fresh.Generation(); g < 2 {
		t.Fatalf("post-swap session scored on generation %d", g)
	}

	// Zero service interruption: nothing was dropped, nothing crashed, and
	// every ObserveTrace above already returned without error.
	st := rt.Stats()
	if st.Dropped != 0 || st.Panics != 0 || st.Quarantined != 0 {
		t.Errorf("service was perturbed: %s", st)
	}
	if st.Swaps == 0 || st.Generation < 2 {
		t.Errorf("swap not visible in runtime stats: %s", st)
	}
	ms := mgr.Stats()
	if ms.DriftSignals == 0 || ms.RetrainsSucceeded == 0 || ms.Swaps == 0 {
		t.Errorf("lifecycle counters: %+v", ms)
	}
	if ms.TracesRecorded != uint64(len(drifted)) {
		t.Errorf("recorded %d traces, want %d", ms.TracesRecorded, len(drifted))
	}

	// The published generation was persisted and survives reload intact.
	regDeadline := time.Now().Add(10 * time.Second)
	for {
		if latest, ok, _ := reg.Latest(); ok && latest.Generation >= 2 {
			p, err := reg.LoadEntry(latest)
			if err != nil {
				t.Fatal(err)
			}
			if p.Threshold == base.Threshold {
				t.Error("persisted generation kept the stale threshold")
			}
			break
		}
		if time.Now().After(regDeadline) {
			t.Fatal("retrained generation never reached the registry")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Uniform slog keys: every lifecycle event of the arc names the profile
	// generation it concerns, so one key correlates drift → retrain → swap.
	seen := map[string]bool{}
	for _, rec := range logBuf.lines() {
		msg, _ := rec["msg"].(string)
		switch msg {
		case "drift confirmed", "retrain started", "retrain finished":
			seen[msg] = true
			if _, ok := rec["generation"]; !ok {
				t.Errorf("slog event %q missing the generation key: %v", msg, rec)
			}
		}
	}
	for _, msg := range []string{"drift confirmed", "retrain started", "retrain finished"} {
		if !seen[msg] {
			t.Errorf("slog event %q never emitted during the drift-retrain-swap arc", msg)
		}
	}

	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	mgr.Stop()
	checkGoroutines(t, before)
}

// TestManagerDefersRetrainOnThinCorpus: a confirmed drift verdict with too
// few recorded traces must not train a garbage model — it defers, re-arms
// the detector, and succeeds once the corpus fills.
func TestManagerDefersRetrainOnThinCorpus(t *testing.T) {
	base, traces := trainAppH(t)
	drifted := driftTraces(traces, 5)

	mgr := NewManager(Config{
		Drift: DriftConfig{
			SampleEvery: 1, Window: 16, Warmup: 16,
			PHDelta: 0.05, PHLambda: 3, RateMargin: 0.25,
		},
		Retrain:   profile.RetrainOptions{Train: hmm.TrainOptions{MaxIters: 4}},
		MinTraces: 2,
		Logger:    slog.New(slog.NewTextHandler(testLog{t}, nil)),
	})
	rt := runtime.New(base,
		runtime.WithWorkers(1),
		runtime.WithJudgeObserver(mgr.Observe),
		runtime.WithAttach(mgr.Bind),
	)
	defer rt.Close()
	mgr.Start()
	defer mgr.Stop()

	s := rt.Session("app")
	for !mgr.DriftState().Warm {
		for _, tr := range traces {
			if _, err := s.ObserveTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Drift with an empty corpus: the verdict fires, retraining defers.
	deadline := time.Now().Add(time.Minute)
	for mgr.Stats().DriftSignals == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drift never confirmed: %+v", mgr.DriftState())
		}
		for _, tr := range drifted {
			if _, err := s.ObserveTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	for mgr.DriftState().Drifted {
		time.Sleep(5 * time.Millisecond) // wait for the deferring reset
		if time.Now().After(deadline) {
			t.Fatal("deferred verdict never re-armed the detector")
		}
	}
	if got := mgr.Stats().RetrainsStarted; got != 0 {
		t.Fatalf("retraining started on an empty corpus (%d runs)", got)
	}
	if rt.Generation() != 1 {
		t.Fatalf("generation advanced to %d without a corpus", rt.Generation())
	}

	// Fill the corpus; the next confirmed verdict retrains and swaps.
	for _, tr := range drifted {
		mgr.RecordTrace(tr)
	}
	for rt.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no swap after corpus fill: %+v, drift %+v", mgr.Stats(), mgr.DriftState())
		}
		for _, tr := range drifted {
			if _, err := s.ObserveTrace(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestManagerLogsPersistFailure: a retrained generation that goes live but
// cannot be persisted leaves the lineage behind the runtime, so a manager
// configured with only a structured logger must report it at Error, keyed by
// the generation that failed to persist.
func TestManagerLogsPersistFailure(t *testing.T) {
	base, traces := trainAppH(t)
	dir := filepath.Join(t.TempDir(), "lineage")
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The registry's directory becomes a regular file after opening, so no
	// generation can be written into it.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	logBuf := &lockedBuffer{}
	mgr := NewManager(Config{
		Retrain:   profile.RetrainOptions{Train: hmm.TrainOptions{MaxIters: 2}},
		MinTraces: 1,
		Registry:  reg,
		Logger:    slog.New(slog.NewJSONHandler(logBuf, nil)),
	})
	rt := runtime.New(base, runtime.WithWorkers(1), runtime.WithAttach(mgr.Bind))
	defer rt.Close()
	mgr.Start()
	defer mgr.Stop()
	for _, tr := range traces {
		mgr.RecordTrace(tr)
	}
	mgr.TriggerRetrain()

	deadline := time.Now().Add(time.Minute)
	for {
		for _, rec := range logBuf.lines() {
			if rec["msg"] != "persist failed" {
				continue
			}
			if rec["level"] != "ERROR" {
				t.Errorf("persist failure logged at %v, want ERROR", rec["level"])
			}
			if gen, _ := rec["generation"].(float64); gen != 2 || rec["err"] == nil {
				t.Errorf("persist failure record %v: want generation 2 and the error", rec)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no persist failure logged: runtime generation %d, manager %+v, log %v",
				rt.Generation(), mgr.Stats(), logBuf.lines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
