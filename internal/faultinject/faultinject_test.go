package faultinject

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adprom/internal/detect"
)

func TestSinkPanicEveryAndLatency(t *testing.T) {
	var delivered int
	s := NewSink(func(string, detect.Alert) { delivered++ },
		PanicEvery(3), Latency(time.Millisecond))
	deliver := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		s.Deliver("sess", detect.Alert{})
		return false
	}
	start := time.Now()
	var panics int
	for i := 0; i < 7; i++ {
		if deliver() {
			panics++
		}
	}
	if panics != 2 { // deliveries 3 and 6
		t.Fatalf("panics = %d, want 2", panics)
	}
	if s.Calls() != 7 || s.Panics() != 2 || delivered != 5 {
		t.Fatalf("calls=%d panics=%d delivered=%d, want 7/2/5", s.Calls(), s.Panics(), delivered)
	}
	if elapsed := time.Since(start); elapsed < 7*time.Millisecond {
		t.Fatalf("latency not injected: 7 deliveries in %v", elapsed)
	}
}

func TestSinkZeroOptionsPassesThrough(t *testing.T) {
	s := NewSink(nil)
	s.Deliver("sess", detect.Alert{}) // nil inner sink must not panic
	if s.Calls() != 1 || s.Panics() != 0 {
		t.Fatalf("calls=%d panics=%d", s.Calls(), s.Panics())
	}
}

// hookPanic runs one EngineFault judgement and returns its panic message, or
// "" if the hook returned normally.
func hookPanic(f *EngineFault, session string, seq int) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f.Hook(session, seq, time.Time{}, -1, false)
	return ""
}

func TestEngineFaultTargetsNthWindowPerSession(t *testing.T) {
	f := NewEngineFault(2, func(id string) bool { return id == "victim" })
	if msg := hookPanic(f, "healthy", 0); msg != "" {
		t.Fatalf("untargeted session panicked: %s", msg)
	}
	if msg := hookPanic(f, "victim", 0); msg != "" {
		t.Fatalf("window 1 panicked early: %s", msg)
	}
	if msg := hookPanic(f, "victim", 1); !strings.Contains(msg, "window 2") {
		t.Fatalf("window 2: panic = %q", msg)
	}
	if !f.Fired("victim") || f.Fired("healthy") {
		t.Fatalf("fired bookkeeping wrong: victim=%v healthy=%v",
			f.Fired("victim"), f.Fired("healthy"))
	}
	// Windows are counted per session: a second victim-like call stream is
	// independent.
	if msg := hookPanic(f, "victim", 2); msg != "" {
		t.Fatalf("post-fire window panicked again: %s", msg)
	}
}

func TestEngineFaultPanicMode(t *testing.T) {
	// A nil target selects every session.
	f := NewEngineFault(1, nil)
	if msg := hookPanic(f, "any", 0); !strings.Contains(msg, "window 1") {
		t.Fatalf("window 1: panic = %q", msg)
	}
	if !f.Fired("any") {
		t.Fatal("Fired not recorded for the panic")
	}
}

func TestWorkerFaultFiresOnceOnNthOp(t *testing.T) {
	f := NewWorkerFault("victim", 2)
	f.Hook(0, "other") // untargeted ops don't count
	f.Hook(0, "victim")
	if f.Fired() {
		t.Fatal("fired before nth op")
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		f.Hook(0, "victim")
		return false
	}()
	if !panicked || !f.Fired() {
		t.Fatalf("nth op: panicked=%v fired=%v", panicked, f.Fired())
	}
	f.Hook(0, "victim") // later ops pass again (one-shot fault)
}

func TestWorkerGateAndLatency(t *testing.T) {
	release := make(chan struct{})
	gate := WorkerGate(release)
	done := make(chan struct{})
	go func() { gate(0, "s"); close(done) }()
	select {
	case <-done:
		t.Fatal("gate did not block")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-done

	start := time.Now()
	WorkerLatency(5*time.Millisecond)(0, "s")
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("latency hook returned early")
	}
}
