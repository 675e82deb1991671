// Package faultinject provides deterministic fault injectors for chaos
// testing the concurrent detection runtime: panic-on-Nth-delivery alert
// sinks, latency injectors, engine judge-hook failures targeting specific
// sessions, and worker-killing hooks that exercise supervised restart.
//
// Every injector exposes a narrow function that matches one of the runtime's
// extension points (runtime.AlertFunc, runtime.JudgeHook,
// runtime.WorkerHook), plus atomic counters so tests can assert exactly
// which faults fired. Only tests import this package: the runtime, tenant
// and daemon chaos suites. `make vet` fails if the adprom binary links it.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adprom/internal/collector"
	"adprom/internal/detect"
)

// Sink wraps an alert sink with injected faults: a fixed per-delivery
// latency (a stalled security-administrator console) and a panic on every
// Nth delivery (a crashing one). The zero options make Deliver a plain
// pass-through.
type Sink struct {
	inner      func(session string, a detect.Alert)
	panicEvery uint64
	latency    time.Duration

	calls  atomic.Uint64
	panics atomic.Uint64
}

// SinkOption configures a Sink.
type SinkOption func(*Sink)

// PanicEvery makes every Nth delivery panic (n <= 0 disables).
func PanicEvery(n int) SinkOption {
	return func(s *Sink) {
		if n > 0 {
			s.panicEvery = uint64(n)
		}
	}
}

// Latency stalls every delivery by d before it completes.
func Latency(d time.Duration) SinkOption {
	return func(s *Sink) { s.latency = d }
}

// NewSink wraps inner (which may be nil for a discard sink) with the given
// faults. Pass Deliver to runtime.WithAlertFunc.
func NewSink(inner func(session string, a detect.Alert), opts ...SinkOption) *Sink {
	s := &Sink{inner: inner}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Deliver is the faulty sink. Safe for concurrent use.
func (s *Sink) Deliver(session string, a detect.Alert) {
	n := s.calls.Add(1)
	if s.latency > 0 {
		time.Sleep(s.latency)
	}
	if s.panicEvery > 0 && n%s.panicEvery == 0 {
		s.panics.Add(1)
		panic(fmt.Sprintf("faultinject: sink panic on delivery %d", n))
	}
	if s.inner != nil {
		s.inner(session, a)
	}
}

// Calls returns how many deliveries reached the sink (including ones that
// then panicked).
func (s *Sink) Calls() uint64 { return s.calls.Load() }

// Panics returns how many deliveries panicked.
func (s *Sink) Panics() uint64 { return s.panics.Load() }

// FaultMode selects how an EngineFault fails: by returning an error through
// the engine's error-propagating judge hook, or by panicking on the worker.
type FaultMode int

const (
	// FaultError makes the judge hook return an error (quarantine without a
	// panic).
	FaultError FaultMode = iota
	// FaultPanic makes the judge hook panic (quarantine via the worker's
	// per-op recovery).
	FaultPanic
)

// EngineFault injects a detection-engine failure through the runtime's
// judge hook: for every session selected by target, the Nth completed-window
// judgement fails in the configured mode. Windows are counted per session,
// so concurrent streams fail independently and deterministically.
type EngineFault struct {
	mode   FaultMode
	nth    int
	target func(session string) bool

	mu      sync.Mutex
	windows map[string]int
	fired   map[string]bool
}

// NewEngineFault builds an injector that fails the nth window judgement of
// every session for which target returns true (nil target selects all).
func NewEngineFault(mode FaultMode, nth int, target func(session string) bool) *EngineFault {
	if nth < 1 {
		nth = 1
	}
	return &EngineFault{
		mode:    mode,
		nth:     nth,
		target:  target,
		windows: make(map[string]int),
		fired:   make(map[string]bool),
	}
}

// Hook matches runtime.JudgeHook; install with runtime.WithJudgeHook.
func (f *EngineFault) Hook(session string, seq int, score float64, flagged bool) error {
	if f.target != nil && !f.target(session) {
		return nil
	}
	f.mu.Lock()
	f.windows[session]++
	n := f.windows[session]
	if n == f.nth {
		f.fired[session] = true
	}
	f.mu.Unlock()
	if n != f.nth {
		return nil
	}
	if f.mode == FaultPanic {
		panic(fmt.Sprintf("faultinject: engine panic for session %q at window %d", session, n))
	}
	return fmt.Errorf("faultinject: engine failure for session %q at window %d", session, n)
}

// Fired reports whether the fault has triggered for the session.
func (f *EngineFault) Fired(session string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired[session]
}

// WorkerFault kills the worker goroutine serving a target session: the Nth
// op addressed to the session panics on the worker loop, outside the per-op
// recovery, so the runtime's supervisor must restart the worker (the target
// session is quarantined; other sessions on the worker are only delayed).
type WorkerFault struct {
	target string
	nth    int64
	ops    atomic.Int64
	fired  atomic.Bool
}

// NewWorkerFault builds an injector that crashes the worker on the nth op of
// the named session. Install with runtime.WithWorkerHook.
func NewWorkerFault(session string, nth int) *WorkerFault {
	if nth < 1 {
		nth = 1
	}
	return &WorkerFault{target: session, nth: int64(nth)}
}

// Hook matches runtime.WorkerHook.
func (f *WorkerFault) Hook(worker int, session string) {
	if session != f.target {
		return
	}
	if f.ops.Add(1) == f.nth {
		f.fired.Store(true)
		panic(fmt.Sprintf("faultinject: killing worker %d on op %d of session %q", worker, f.nth, session))
	}
}

// Fired reports whether the worker crash has been injected.
func (f *WorkerFault) Fired() bool { return f.fired.Load() }

// WorkerLatency returns a runtime.WorkerHook-shaped injector that stalls
// every op by d — coarse latency injection for backpressure and deadline
// tests.
func WorkerLatency(d time.Duration) func(worker int, session string) {
	return func(int, string) { time.Sleep(d) }
}

// WorkerGate returns a worker hook that blocks every op until release is
// closed — a deterministic way to wedge a worker (full-queue and shutdown
// deadline tests).
func WorkerGate(release <-chan struct{}) func(worker int, session string) {
	return func(int, string) { <-release }
}

// Stream is the slice of a runtime session the overload generator drives.
// runtime.Session satisfies it; the indirection keeps this package free of a
// runtime import (the runtime's own chaos tests import faultinject).
type Stream interface {
	Observe(c collector.Call) error
	ObserveBatch(calls []collector.Call) error
}

// OverloadReport tallies one generator run: calls offered to the stream,
// calls the runtime accepted, calls rejected by drop/shed errors, and how
// many individual ops returned a rejection. Admitted + Shed == Sent unless
// Run aborted on an unclassified error.
type OverloadReport struct {
	Sent     int
	Admitted int
	Shed     int
	ShedOps  int
}

// OverloadGen replays traces into a Stream as fast as the caller's loop can
// go — no pacing, no backoff — so that against a small queue (or a stalled
// worker) the offered load exceeds capacity by construction. Passes repeats
// the whole corpus; Batch > 1 sends calls through ObserveBatch in chunks of
// that size, exercising partial-batch admission.
type OverloadGen struct {
	Traces []collector.Trace
	Passes int
	Batch  int
}

// Run offers every call to s and classifies each error with classify, which
// reports how many of the op's n calls were rejected and whether the error
// is an expected overload rejection (drop/shed) rather than a hard failure.
// Run stops at the first unclassified error and returns it with the partial
// report.
func (g *OverloadGen) Run(s Stream, classify func(err error, n int) (rejected int, overload bool)) (OverloadReport, error) {
	passes := g.Passes
	if passes < 1 {
		passes = 1
	}
	var r OverloadReport
	offer := func(calls []collector.Call) error {
		n := len(calls)
		var err error
		if g.Batch > 1 {
			err = s.ObserveBatch(calls)
		} else {
			err = s.Observe(calls[0])
		}
		r.Sent += n
		if err == nil {
			r.Admitted += n
			return nil
		}
		rejected, overload := classify(err, n)
		if !overload {
			return err
		}
		if rejected < 0 || rejected > n {
			return fmt.Errorf("faultinject: classifier reported %d of %d calls rejected: %w", rejected, n, err)
		}
		r.Shed += rejected
		r.Admitted += n - rejected
		r.ShedOps++
		return nil
	}
	for pass := 0; pass < passes; pass++ {
		for _, tr := range g.Traces {
			if g.Batch > 1 {
				for lo := 0; lo < len(tr); lo += g.Batch {
					hi := lo + g.Batch
					if hi > len(tr) {
						hi = len(tr)
					}
					if err := offer(tr[lo:hi]); err != nil {
						return r, err
					}
				}
				continue
			}
			for i := range tr {
				if err := offer(tr[i : i+1]); err != nil {
					return r, err
				}
			}
		}
	}
	return r, nil
}
