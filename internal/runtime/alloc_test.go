package runtime

import (
	"math"
	"testing"
)

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestObservePerCallAllocFree pins the per-call ingest path: Session.Observe
// carries its call inline through the queue to the engine, so replaying a
// run call by call and flushing it allocates no more than the flush alone
// (its reply channel).
func TestObservePerCallAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(1))
	defer rt.Close()
	s := rt.Session("allocs")
	tr := traces[0] // the longest run, so full windows complete too
	for _, r := range traces {
		if len(r) > len(tr) {
			tr = r
		}
	}
	run := func() {
		for _, c := range tr {
			if err := s.Observe(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: the session's engine exists and its ring is full size
	if h, _ := s.Flush(); len(h) != 0 {
		t.Fatalf("training run raised %d alerts", len(h))
	}
	flushAllocs := testing.AllocsPerRun(50, flush)
	runAllocs := testing.AllocsPerRun(50, run)
	t.Logf("flush alone %v allocs, %d observes + flush %v allocs", flushAllocs, len(tr), runAllocs)
	if runAllocs > flushAllocs {
		t.Fatalf("%d per-call observes + flush allocate %v times, flush alone %v", len(tr), runAllocs, flushAllocs)
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
