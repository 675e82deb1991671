package runtime

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/faultinject"
	"adprom/internal/hmm"
	"adprom/internal/profile"
	"adprom/internal/shed"
)

var appHOnce struct {
	sync.Once
	p      *profile.Profile
	traces []collector.Trace
	err    error
}

func trainAppH(t *testing.T) (*profile.Profile, []collector.Trace) {
	t.Helper()
	appHOnce.Do(func() {
		app := dataset.AppH()
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			appHOnce.err = err
			return
		}
		p, _, err := core.Train(app.Prog, traces, profile.Options{
			Train: hmm.TrainOptions{MaxIters: 6},
		})
		appHOnce.p, appHOnce.traces, appHOnce.err = p, traces, err
	})
	if appHOnce.err != nil {
		t.Fatal(appHOnce.err)
	}
	return appHOnce.p, appHOnce.traces
}

// streamSet builds a mixed corpus of normal and attacked (foreign-burst)
// streams so the equivalence test covers alerting and non-alerting paths.
func streamSet(traces []collector.Trace, n int) []collector.Trace {
	out := make([]collector.Trace, n)
	for i := range out {
		base := traces[i%len(traces)]
		if i%3 == 2 {
			mutated := append(collector.Trace{}, base...)
			for k := 0; k < 6; k++ {
				mutated = append(mutated, collector.Call{
					Label: "curl_easy_perform", Name: "curl_easy_perform", Caller: "main",
				})
			}
			out[i] = mutated
		} else {
			out[i] = base
		}
	}
	return out
}

// TestRuntimeMatchesSequentialMonitor drives 32 concurrent sessions through
// one shared Runtime/Profile (run under -race) and checks each session's
// alert history against the sequential Monitor baseline: identical alerts,
// with window scores from the incremental scorer within 1e-9 of the batch
// LogProb the Monitor path uses.
func TestRuntimeMatchesSequentialMonitor(t *testing.T) {
	p, traces := trainAppH(t)
	const sessions = 32
	streams := streamSet(traces, sessions)

	// Sequential baseline: a fresh Monitor per stream.
	want := make([][]detect.Alert, sessions)
	for i, tr := range streams {
		want[i] = core.NewMonitor(p, nil).ObserveTrace(tr)
	}

	rt := New(p, WithWorkers(4), WithQueueDepth(64))
	defer rt.Close()

	got := make([][]detect.Alert, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	var totalCalls uint64
	for i := 0; i < sessions; i++ {
		totalCalls += uint64(len(streams[i]))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(fmt.Sprintf("session-%03d", i))
			for _, c := range streams[i] {
				if err := s.Observe(c); err != nil {
					errs[i] = err
					return
				}
			}
			got[i], errs[i] = s.Close()
		}(i)
	}
	wg.Wait()

	var wantAlerts uint64
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if err := alertsEquivalent(got[i], want[i]); err != nil {
			t.Errorf("session %d diverged from sequential Monitor: %v", i, err)
		}
		wantAlerts += uint64(len(want[i]))
	}
	if wantAlerts == 0 {
		t.Fatal("baseline raised no alerts; the equivalence check is vacuous")
	}
	st := rt.Stats()
	if st.Calls != totalCalls || st.Dropped != 0 {
		t.Errorf("stats: calls=%d dropped=%d, want %d/0", st.Calls, st.Dropped, totalCalls)
	}
	if st.AlertTotal() != wantAlerts {
		t.Errorf("stats: %d alerts counted, want %d", st.AlertTotal(), wantAlerts)
	}
	if st.ActiveSessions != 0 || st.SessionsOpened != sessions {
		t.Errorf("stats: active=%d opened=%d, want 0/%d", st.ActiveSessions, st.SessionsOpened, sessions)
	}
}

// TestStreamScorerMatchesBatchOnCAApps is the acceptance check for the
// incremental scorer: on the bundled Hospital, Banking, and Supermarket apps,
// every sliding window of every trace scores identically (within 1e-9) under
// the per-session StreamScorer and the batch hmm.Model.LogProb.
func TestStreamScorerMatchesBatchOnCAApps(t *testing.T) {
	for _, app := range dataset.CAApps() {
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		p, _, err := core.Train(app.Prog, traces, profile.Options{
			Train:           hmm.TrainOptions{MaxIters: 2},
			MaxTrainWindows: 300,
		})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		w := p.WindowLen
		windows := 0
		for _, tr := range traces {
			st := p.NewStreamScorer(w)
			labels := tr.Labels()
			for i, l := range labels {
				got, done := st.Push(p.SymbolOf(l))
				if i < w-1 {
					if done {
						t.Fatalf("%s: premature window at %d", app.Name, i)
					}
					continue
				}
				if !done {
					t.Fatalf("%s: missing window at %d", app.Name, i)
				}
				want, err := p.Model.LogProb(p.Encode(labels[i-w+1 : i+1]))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%s window ending at %d: stream %v, batch %v", app.Name, i, got, want)
				}
				windows++
			}
		}
		if windows == 0 {
			t.Fatalf("%s: no full windows scored", app.Name)
		}
		t.Logf("%s: %d windows matched batch scoring", app.Name, windows)
	}
}

func TestRuntimeShedByRiskShedsLoad(t *testing.T) {
	p, traces := trainAppH(t)
	gate := make(chan struct{})
	rt := New(p,
		WithWorkers(1), WithQueueDepth(1), WithShedConfig(shed.Config{Seed: 1}),
		// Wedge the worker so the depth-1 queue must overflow. (A slow alert
		// sink no longer stalls workers — delivery is async — so the stall
		// is injected on the worker path itself.)
		WithWorkerHook(faultinject.WorkerGate(gate)),
	)
	s := rt.Session("flood")
	shedOne := false
	var sent int
	for pass := 0; pass < 100 && !shedOne; pass++ {
		for _, c := range traces[0] {
			sent++
			if err := s.Observe(c); errors.Is(err, ErrShed) {
				shedOne = true
				break
			}
		}
	}
	close(gate)
	if !shedOne {
		t.Fatalf("no call shed after %d sends through a depth-1 queue", sent)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Shed == 0 {
		t.Fatalf("Stats.Shed = 0 after shedding; stats %v", st)
	}
	if st.Calls+st.Shed < uint64(sent) {
		t.Fatalf("calls %d + shed %d < sent %d", st.Calls, st.Shed, sent)
	}
}

// TestObserveTraceReportsShedding covers the truncation contract: a
// truncated replay returns the flushed history together with an error
// wrapping ErrShed, so callers can tell it apart from a complete one.
func TestObserveTraceReportsShedding(t *testing.T) {
	p, traces := trainAppH(t)
	gate := make(chan struct{})
	rt := New(p,
		WithWorkers(1), WithQueueDepth(1), WithShedConfig(shed.Config{Seed: 1}),
		WithWorkerHook(faultinject.WorkerGate(gate)),
	)
	s := rt.Session("truncated")
	// The worker is gated, so at most one call is consumed and at most one
	// sits in the queue: a full trace must shed.
	errc := make(chan error, 1)
	histc := make(chan []detect.Alert, 1)
	go func() {
		h, err := s.ObserveTrace(traces[0])
		histc <- h
		errc <- err
	}()
	// ObserveTrace's flush is a control op: it blocks until the gate opens.
	close(gate)
	err := <-errc
	<-histc
	if !errors.Is(err, ErrShed) {
		t.Fatalf("truncated replay: err = %v, want ErrShed wrapper", err)
	}
	if rt.Stats().Shed == 0 {
		t.Fatal("no sheds counted for a truncated replay")
	}
	// (Complete replays under backpressure report a nil error; that path
	// is covered by TestSessionLifecycle.)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeCloseDrainsLateRegistrations locks in the Close/Session race
// fix: sessions registered while Close snapshots are either drained or
// refused, so the ActiveSessions gauge always returns to zero.
func TestRuntimeCloseDrainsLateRegistrations(t *testing.T) {
	p, traces := trainAppH(t)
	for round := 0; round < 8; round++ {
		rt := New(p, WithWorkers(2), WithQueueDepth(16))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					s := rt.Session(fmt.Sprintf("r%d-g%d-s%d", round, g, i))
					if err := s.Observe(traces[0][0]); errors.Is(err, ErrClosed) {
						return
					}
				}
			}(g)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if st := rt.Stats(); st.ActiveSessions != 0 {
			t.Fatalf("round %d: ActiveSessions = %d after Close (gauge leak); stats %v",
				round, st.ActiveSessions, st)
		}
		// A registration attempted after Close must be born closed.
		if err := rt.Session("late").Observe(traces[0][0]); !errors.Is(err, ErrClosed) {
			t.Fatalf("late session observe: %v", err)
		}
	}
}

func TestStatsStringAndAlertTotal(t *testing.T) {
	st := Stats{
		Calls:   100,
		Dropped: 3,
		Workers: 4,
	}
	st.Alerts[int(detect.FlagAnomalous)] = 2
	st.Alerts[int(detect.FlagDL)] = 5
	st.Alerts[int(detect.FlagOutOfContext)] = 1
	if got := st.AlertTotal(); got != 8 {
		t.Fatalf("AlertTotal = %d, want 8", got)
	}
	out := st.String()
	for _, want := range []string{
		"calls=100", "dropped=3", "alerts=8",
		"anomalous=2", "dl=5", "ooc=1",
		"panics=0", "restarts=0", "quarantined=0", "sink[dropped=0 panics=0]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String() = %q: missing %q", out, want)
		}
	}
	var zero Stats
	if zero.AlertTotal() != 0 {
		t.Errorf("zero Stats.AlertTotal() = %d", zero.AlertTotal())
	}
}

func TestRuntimeBlockPolicyLosesNothing(t *testing.T) {
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(2), WithQueueDepth(4))
	var sent uint64
	for i := 0; i < 8; i++ {
		s := rt.Session(fmt.Sprintf("s%d", i))
		for pass := 0; pass < 3; pass++ {
			for _, c := range traces[i%len(traces)] {
				if err := s.Observe(c); err != nil {
					t.Fatal(err)
				}
				sent++
			}
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Dropped != 0 || st.Calls != sent {
		t.Fatalf("block policy: calls=%d dropped=%d, want %d/0", st.Calls, st.Dropped, sent)
	}
	if st.ActiveSessions != 0 || st.SessionsOpened != 8 {
		t.Fatalf("session churn: active=%d opened=%d", st.ActiveSessions, st.SessionsOpened)
	}
}

func TestSessionLifecycle(t *testing.T) {
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(2))
	defer rt.Close()

	s := rt.Session("a")
	if rt.Session("a") != s {
		t.Fatal("Session(id) not stable")
	}
	if _, err := s.ObserveTrace(traces[0]); err != nil {
		t.Fatal(err)
	}
	alerts, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("normal trace alerted: %+v", alerts)
	}
	if err := s.Observe(collector.Call{Label: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("observe on closed session: %v", err)
	}
	if _, err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	// The id is free again and maps to a fresh session with a clean engine.
	s2 := rt.Session("a")
	if s2 == s {
		t.Fatal("closed session not evicted")
	}
	if _, err := s2.ObserveTrace(traces[0]); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeCloseRejectsLateTraffic(t *testing.T) {
	p, _ := trainAppH(t)
	rt := New(p, WithWorkers(1))
	s := rt.Session("a")
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Observe(collector.Call{Label: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("observe after runtime close: %v", err)
	}
	if err := rt.Session("b").Observe(collector.Call{Label: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("new session after close: %v", err)
	}
}

func alertsEquivalent(got, want []detect.Alert) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d alerts, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Abs(g.Score-w.Score) > 1e-9 || math.Abs(g.Threshold-w.Threshold) > 1e-9 {
			return fmt.Errorf("alert %d: score %v/%v, threshold %v/%v", i, g.Score, w.Score, g.Threshold, w.Threshold)
		}
		g.Score, g.Threshold, w.Score, w.Threshold = 0, 0, 0, 0
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("alert %d: %+v != %+v", i, g, w)
		}
	}
	return nil
}
