package runtime

// Chaos suite: fault-injection tests (run them under -race; `make race`
// does) proving the runtime's failure model — sink isolation, per-session
// quarantine, supervised worker restart, and deadline-bounded shutdown —
// while healthy sessions stay bit-identical to the sequential Monitor
// baseline and no goroutines leak.

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"adprom/internal/core"
	"adprom/internal/detect"
	"adprom/internal/faultinject"
)

// checkGoroutines waits for the goroutine count to return to the baseline,
// dumping stacks if workers or dispatcher goroutines leaked.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := stdruntime.NumGoroutine(); now <= before {
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

// TestChaosSinkFaultsDoNotPerturbDetection injects the acceptance-criteria
// sink faults — a panic every 3rd delivery plus a 100ms stall per delivery —
// through a deliberately tiny sink buffer, and checks every session's alert
// history is still bit-identical to the sequential Monitor baseline: a slow
// or crashing sink may shed its own deliveries, but it can never stall or
// corrupt detection.
func TestChaosSinkFaultsDoNotPerturbDetection(t *testing.T) {
	p, traces := trainAppH(t)
	const sessions = 16
	streams := streamSet(traces, sessions)

	want := make([][]detect.Alert, sessions)
	var wantAlerts uint64
	for i, tr := range streams {
		want[i] = core.NewMonitor(p, nil).ObserveTrace(tr)
		wantAlerts += uint64(len(want[i]))
	}
	if wantAlerts < 3 {
		t.Fatalf("baseline raised only %d alerts; chaos assertions need >= 3", wantAlerts)
	}

	before := stdruntime.NumGoroutine()
	sink := faultinject.NewSink(nil,
		faultinject.PanicEvery(3),
		faultinject.Latency(100*time.Millisecond))
	rt := New(p,
		WithWorkers(4), WithQueueDepth(64),
		WithAlertFunc(sink.Deliver),
		WithSinkBuffer(4))

	got := make([][]detect.Alert, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(fmt.Sprintf("chaos-sink-%03d", i))
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

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if err := alertsEquivalent(got[i], want[i]); err != nil {
			t.Errorf("session %d diverged under sink chaos: %v", i, err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.AlertTotal() != wantAlerts {
		t.Errorf("alert counters diverged: %d, want %d", st.AlertTotal(), wantAlerts)
	}
	if st.SinkPanics+st.SinkDropped == 0 {
		t.Errorf("no sink faults surfaced in stats: %v", st)
	}
	if st.SinkPanics != sink.Panics() {
		t.Errorf("SinkPanics = %d, sink recorded %d", st.SinkPanics, sink.Panics())
	}
	if st.Panics != 0 || st.Quarantined != 0 || st.WorkerRestarts != 0 {
		t.Errorf("sink faults must not touch workers/sessions: %v", st)
	}
	checkGoroutines(t, before)
}

// TestChaosEnginePanicQuarantinesOnlyVictims panics the detection engine
// (via the judge observer) on the first window judgement of every "victim"
// session: victims are quarantined with ErrSessionFailed while every healthy
// session's history stays bit-identical to the sequential baseline, and the
// workers that recovered the panics keep serving without restarting.
func TestChaosEnginePanicQuarantinesOnlyVictims(t *testing.T) {
	p, traces := trainAppH(t)
	const sessions = 16
	streams := streamSet(traces, sessions)

	want := make([][]detect.Alert, sessions)
	for i, tr := range streams {
		want[i] = core.NewMonitor(p, nil).ObserveTrace(tr)
	}

	victim := func(id string) bool { return strings.HasSuffix(id, "-victim") }
	name := func(i int) string {
		if i%4 == 0 {
			return fmt.Sprintf("chaos-eng-%03d-victim", i)
		}
		return fmt.Sprintf("chaos-eng-%03d", i)
	}

	before := stdruntime.NumGoroutine()
	fault := faultinject.NewEngineFault(1, victim)
	rt := New(p, WithWorkers(2), WithQueueDepth(64), WithJudgeObserver(fault.Hook))

	type result struct {
		alerts []detect.Alert
		err    error
	}
	results := make([]result, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(name(i))
			for _, c := range streams[i] {
				if err := s.Observe(c); err != nil {
					results[i].err = err
					break
				}
			}
			a, err := s.Close()
			results[i].alerts = a
			if results[i].err == nil {
				results[i].err = err
			} else if !errors.Is(err, ErrSessionFailed) {
				t.Errorf("session %d: close after failed observe: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	victims := 0
	for i := 0; i < sessions; i++ {
		if victim(name(i)) {
			victims++
			if !errors.Is(results[i].err, ErrSessionFailed) {
				t.Errorf("victim %d: err = %v, want ErrSessionFailed", i, results[i].err)
			}
			if !fault.Fired(name(i)) {
				t.Errorf("victim %d: fault never fired", i)
			}
			continue
		}
		if results[i].err != nil {
			t.Fatalf("healthy session %d: %v", i, results[i].err)
		}
		if err := alertsEquivalent(results[i].alerts, want[i]); err != nil {
			t.Errorf("healthy session %d diverged under engine chaos: %v", i, err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Quarantined != uint64(victims) {
		t.Errorf("Quarantined = %d, want %d", st.Quarantined, victims)
	}
	if st.Panics < uint64(victims) {
		t.Errorf("Panics = %d, want >= %d", st.Panics, victims)
	}
	if st.WorkerRestarts != 0 {
		t.Errorf("per-op recovery must not restart workers: %v", st)
	}
	if st.ActiveSessions != 0 {
		t.Errorf("ActiveSessions = %d after closing everything", st.ActiveSessions)
	}
	checkGoroutines(t, before)
}

// TestChaosWorkerCrashRestartsAndPreservesHealthySessions kills the single
// worker goroutine itself (a panic outside the per-op recovery) on the
// victim session's 3rd op: supervision restarts the worker with backoff, the
// victim is quarantined, and a healthy session sharing that worker and queue
// still produces a bit-identical history.
func TestChaosWorkerCrashRestartsAndPreservesHealthySessions(t *testing.T) {
	p, traces := trainAppH(t)
	streams := streamSet(traces, 3)
	healthyStream := streams[2] // the mutated, alert-raising stream
	want := core.NewMonitor(p, nil).ObserveTrace(healthyStream)

	before := stdruntime.NumGoroutine()
	fault := faultinject.NewWorkerFault("wf-victim", 3)
	rt := New(p, WithWorkers(1), WithQueueDepth(256), WithWorkerHook(fault.Hook))

	victim := rt.Session("wf-victim")
	var victimErr error
	for i := 0; i < 8; i++ {
		if err := victim.Observe(traces[0][i%len(traces[0])]); err != nil {
			victimErr = err
			break
		}
	}

	healthy := rt.Session("wf-healthy")
	gotHealthy, err := healthy.ObserveTrace(healthyStream)
	if err != nil {
		t.Fatalf("healthy session: %v", err)
	}
	if err := alertsEquivalent(gotHealthy, want); err != nil {
		t.Errorf("healthy session diverged across a worker crash: %v", err)
	}

	// The victim ends quarantined: either an ingest call already failed or
	// the close op reports it.
	_, closeErr := victim.Close()
	if victimErr == nil && !errors.Is(closeErr, ErrSessionFailed) {
		t.Fatalf("victim close: %v (observe err %v)", closeErr, victimErr)
	}
	if !fault.Fired() {
		t.Fatal("worker fault never fired")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.WorkerRestarts == 0 {
		t.Errorf("no supervised restart recorded: %v", st)
	}
	if st.Panics == 0 || st.Quarantined != 1 {
		t.Errorf("panics=%d quarantined=%d, want >0/1", st.Panics, st.Quarantined)
	}
	checkGoroutines(t, before)
}

// TestCloseContextReturnsWithinDeadline wedges the only worker and asserts
// CloseContext gives up at its deadline instead of hanging on the drain,
// while still fencing off further ingest.
func TestCloseContextReturnsWithinDeadline(t *testing.T) {
	p, traces := trainAppH(t)
	gate := make(chan struct{})
	before := stdruntime.NumGoroutine()
	rt := New(p, WithWorkers(1), WithWorkerHook(faultinject.WorkerGate(gate)))
	s := rt.Session("stuck")
	for i := 0; i < 4; i++ {
		if err := s.Observe(traces[0][i]); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := rt.CloseContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CloseContext = %v, want DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("CloseContext took %v past a 200ms deadline", elapsed)
	}
	if err := s.Observe(traces[0][0]); err == nil {
		t.Fatal("observe accepted after CloseContext")
	}
	if err := rt.Session("late").Observe(traces[0][0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("new session after CloseContext: %v", err)
	}

	// Unwedge the worker; background shutdown completes and a second close
	// is an immediate no-op.
	close(gate)
	if err := rt.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	checkGoroutines(t, before)
}

// TestObserveAndFlushContextDeadlines bounds Block-policy backpressure and
// flush waits by caller deadlines.
func TestObserveAndFlushContextDeadlines(t *testing.T) {
	p, traces := trainAppH(t)
	gate := make(chan struct{})
	rt := New(p, WithWorkers(1), WithQueueDepth(1),
		WithWorkerHook(faultinject.WorkerGate(gate)))
	s := rt.Session("deadline")

	// First call is taken by the (wedged) worker, second fills the queue.
	if err := s.Observe(traces[0][0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(traces[0][1]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.ObserveContext(ctx, traces[0][2]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked ObserveContext = %v, want DeadlineExceeded", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if _, err := s.FlushContext(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked FlushContext = %v, want DeadlineExceeded", err)
	}

	close(gate)
	if _, err := s.Flush(); err != nil {
		t.Fatalf("flush after unwedging: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCombined is the acceptance scenario in one run: a sink that
// panics every 3rd delivery and stalls 100ms, engine panics on victim
// sessions, and a worker crash — healthy sessions must still match the
// sequential Monitor bit-for-bit, CloseContext must meet its deadline, and
// nothing may leak.
func TestChaosCombined(t *testing.T) {
	p, traces := trainAppH(t)
	const sessions = 12
	streams := streamSet(traces, sessions)

	want := make([][]detect.Alert, sessions)
	for i, tr := range streams {
		want[i] = core.NewMonitor(p, nil).ObserveTrace(tr)
	}

	victim := func(id string) bool { return strings.HasSuffix(id, "-victim") }
	name := func(i int) string {
		if i == 2 || i == 7 {
			return fmt.Sprintf("combined-%03d-victim", i)
		}
		return fmt.Sprintf("combined-%03d", i)
	}

	before := stdruntime.NumGoroutine()
	sink := faultinject.NewSink(nil,
		faultinject.PanicEvery(3), faultinject.Latency(100*time.Millisecond))
	engineFault := faultinject.NewEngineFault(1, victim)
	workerFault := faultinject.NewWorkerFault(name(7), 4)
	rt := New(p,
		WithWorkers(3), WithQueueDepth(64),
		WithAlertFunc(sink.Deliver), WithSinkBuffer(8),
		WithJudgeObserver(engineFault.Hook),
		WithWorkerHook(workerFault.Hook))

	type result struct {
		alerts []detect.Alert
		err    error
	}
	results := make([]result, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(name(i))
			for _, c := range streams[i] {
				if err := s.Observe(c); err != nil {
					results[i].err = err
					break
				}
			}
			a, err := s.Close()
			results[i].alerts = a
			if results[i].err == nil {
				results[i].err = err
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if victim(name(i)) {
			if !errors.Is(results[i].err, ErrSessionFailed) {
				t.Errorf("victim %d: err = %v, want ErrSessionFailed", i, results[i].err)
			}
			continue
		}
		if results[i].err != nil {
			t.Fatalf("healthy session %d: %v", i, results[i].err)
		}
		if err := alertsEquivalent(results[i].alerts, want[i]); err != nil {
			t.Errorf("healthy session %d diverged under combined chaos: %v", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := rt.CloseContext(ctx); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("CloseContext took %v past its deadline", elapsed)
	}
	st := rt.Stats()
	if st.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2", st.Quarantined)
	}
	if st.Panics == 0 {
		t.Errorf("no panics recorded under combined chaos: %v", st)
	}
	if st.ActiveSessions != 0 {
		t.Errorf("ActiveSessions = %d after combined chaos", st.ActiveSessions)
	}
	checkGoroutines(t, before)
	t.Logf("combined chaos stats: %v", st)
}
