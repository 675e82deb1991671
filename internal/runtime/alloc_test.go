package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/detect"
	"adprom/internal/sqlchan"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestObservePerCallAllocFree pins the per-call ingest path: Session.Observe
// carries its call inline through the queue to the engine, and the flush's
// reply channel comes from the runtime's pool, so replaying a run call by
// call and flushing it allocates nothing, and neither does the flush alone.
func TestObservePerCallAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(1))
	defer rt.Close()
	s := rt.Session("allocs")
	tr := longestRun(traces) // so full windows complete too
	run := func() {
		for _, c := range tr {
			if err := s.Observe(c); err != nil {
				t.Fatal(err)
			}
		}
		if alerts, err := s.Flush(); err != nil || len(alerts) != 0 {
			t.Fatalf("flush of a training run: %d alerts, %v", len(alerts), err)
		}
	}
	flush := func() {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the session's engine exists and its ring is full size
	flushAllocs := testing.AllocsPerRun(50, flush)
	runAllocs := testing.AllocsPerRun(50, run)
	t.Logf("flush alone %v allocs, %d observes + flush %v allocs", flushAllocs, len(tr), runAllocs)
	if flushAllocs != 0 || runAllocs != 0 {
		t.Fatalf("%d per-call observes + flush allocate %v times, flush alone %v", len(tr), runAllocs, flushAllocs)
	}
}

// longestRun returns the longest of the training runs.
func longestRun(traces []collector.Trace) collector.Trace {
	tr := traces[0]
	for _, r := range traces {
		if len(r) > len(tr) {
			tr = r
		}
	}
	return tr
}

// servingRuntime builds a one-worker runtime over apph with serve's
// detection defaults: the SQL channel, trained on the same runs with serve's
// sensitive columns, fused with the HMM under the default rule.
func servingRuntime(t *testing.T, opts ...Option) (*Runtime, []collector.Trace) {
	t.Helper()
	p, traces := trainAppH(t)
	sqlP, err := sqlchan.Train(traces, sqlchan.Options{SensitiveColumns: []string{"name", "balance"}})
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{WithWorkers(1), WithSQLChannel(sqlP), WithFusion(detect.FusionConfig{})}
	return New(p, append(base, opts...)...), traces
}

// TestSessionBatchFlushAllocFree pins steady state on a long-lived session
// with both channels: observing apph's longest run as one batch and
// flushing it allocates nothing. The batch is copied into a pooled buffer
// the worker returns after scoring, the flush's reply channel is pooled,
// and the SQL channel normalises each query into its scorer's scratch.
func TestSessionBatchFlushAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rt, traces := servingRuntime(t)
	defer rt.Close()
	tr := longestRun(traces)
	s := rt.Session("long-lived")
	run := func() {
		if err := s.ObserveBatch(tr); err != nil {
			t.Fatal(err)
		}
		if alerts, err := s.Flush(); err != nil || len(alerts) != 0 {
			t.Fatalf("flush of a training run: %d alerts, %v", len(alerts), err)
		}
	}
	run() // warm: the engine, its scorers and the pools exist
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a warm session's %d-call batch + flush allocates %v times", len(tr), allocs)
	}
}

// TestSessionOpenCloseAllocs pins session churn: opening a session,
// observing apph's longest run as one batch and closing it allocates at
// most twice per cycle, the Session and its engine's judge hook. The engine
// comes from the runtime's pool with its SQL scorer, and goes back to it
// in the same pool entry.
func TestSessionOpenCloseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	rt, traces := servingRuntime(t)
	defer rt.Close()
	tr := longestRun(traces)
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("churn-%02d", i)
	}
	next := 0
	cycle := func() {
		s := rt.Session(ids[next%len(ids)])
		next++
		if err := s.ObserveBatch(tr); err != nil {
			t.Fatal(err)
		}
		if alerts, err := s.Close(); err != nil || len(alerts) != 0 {
			t.Fatalf("close after a training run: %d alerts, %v", len(alerts), err)
		}
	}
	cycle() // warm: the pool holds an engine with its scorers
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("open, %d-call batch, close: %v allocs per cycle", len(tr), allocs)
	if allocs > 2 {
		t.Fatalf("open, %d-call batch, close allocates %v times per cycle, want at most 2", len(tr), allocs)
	}
}

// TestAbandonedFlushReplyStaysOut abandons a flush the worker is holding:
// its context expires first. The worker still performs the flush later and
// sends its reply (the attacked run's alerts) into the abandoned channel,
// which must never be handed to a later flush: that flush raises no alert
// of its own and must return none.
func TestAbandonedFlushReplyStaysOut(t *testing.T) {
	p, traces := trainAppH(t)
	var hold atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	rt := New(p, WithWorkers(1), WithWorkerHook(func(int, string) {
		if hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
	}))
	defer rt.Close()
	s := rt.Session("abandoned")
	if err := s.ObserveBatch(attackStream(traces)); err != nil {
		t.Fatal(err)
	}
	hold.Store(true) // the worker holds the next op it takes
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.FlushContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("held FlushContext = %v, want DeadlineExceeded", err)
	}
	<-held
	close(release)
	alerts, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("a later Flush returned %d alerts: the abandoned flush's reply reached it", len(alerts))
	}
	if rt.Stats().AlertTotal() == 0 {
		t.Fatal("the attacked run raised no alert; the abandoned reply carried nothing to leak")
	}
}

// TestTracedObserveSampledOutAllocFree is the traced counterpart: with every
// healthy trace sampled out, a run observed as one batch and flushed records
// its admit and score spans in two traces and costs no more allocations
// than the same run untraced. The decision log is off in both runs: a
// sampled Normal decision reads its op's trace ID, which formats it.
func TestTracedObserveSampledOutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p, traces := trainAppH(t)
	allocs := func(opts ...Option) float64 {
		rt := New(p, append([]Option{WithWorkers(1), WithDecisionLog(-1, 0)}, opts...)...)
		defer rt.Close()
		s := rt.Session("allocs")
		run := func() {
			if err := s.ObserveBatch(traces[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the engine and the trace pool
		return testing.AllocsPerRun(200, run)
	}
	plain := allocs()
	traced := allocs(WithTracing(16, math.MaxInt))
	t.Logf("a %d-call batch + flush: %v allocs untraced, %v traced", len(traces[0]), plain, traced)
	if traced > plain {
		t.Fatalf("sampled-out tracing adds %v allocations to a batch and its flush", traced-plain)
	}
}
