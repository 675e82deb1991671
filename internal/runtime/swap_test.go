package runtime

// Hot-swap suite: proves the profile-generation protocol — in-flight windows
// finish on the generation they started on, sessions upgrade only at trace
// boundaries with continuous alert history, pooled engines are invalidated by
// generation — and the acceptance criterion that under concurrent load with
// repeated SwapProfile calls, every trace completing on a single generation
// is bit-identical to a sequential Monitor over that generation's profile.
// Run under -race (`make race` does).

import (
	"bytes"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adprom/internal/core"
	"adprom/internal/detect"
	"adprom/internal/profile"
)

// cloneProfile round-trips p through the versioned codec, yielding an
// independent deep copy whose threshold can be changed without touching p.
func cloneProfile(t *testing.T, p *profile.Profile) *profile.Profile {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := profile.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// shiftSeq returns alerts with off subtracted from every Seq, mapping a
// session's cumulative history back onto the per-trace numbering a fresh
// sequential Monitor produces.
func shiftSeq(alerts []detect.Alert, off int) []detect.Alert {
	out := make([]detect.Alert, len(alerts))
	for i, a := range alerts {
		a.Seq -= off
		out[i] = a
	}
	return out
}

// TestSwapProfileSemantics pins the deterministic contract: a window spanning
// a swap finishes on its starting generation, the upgrade lands exactly at
// the next trace boundary with alert history carried over, and the swap
// surfaces in Stats.
func TestSwapProfileSemantics(t *testing.T) {
	p1, traces := trainAppH(t)
	p2 := cloneProfile(t, p1)
	// Threshold 0 makes every completed window alert under p2 (per-symbol log
	// probabilities are negative), so the two generations are unmistakably
	// distinguishable in their alert output.
	p2.Threshold = 0
	tr := traces[0]

	base1 := core.NewMonitor(p1, nil).ObserveTrace(tr)
	base2 := core.NewMonitor(p2, nil).ObserveTrace(tr)
	if len(base2) <= len(base1) {
		t.Fatalf("baselines indistinct: p1 raises %d alerts, p2 %d", len(base1), len(base2))
	}

	rt := New(p1, WithWorkers(2))
	defer rt.Close()
	if rt.Generation() != 1 || rt.Profile() != p1 {
		t.Fatalf("fresh runtime: gen=%d profile=%p, want 1/%p", rt.Generation(), rt.Profile(), p1)
	}
	if _, err := rt.SwapProfile(nil); err == nil {
		t.Fatal("SwapProfile(nil) succeeded")
	}

	s := rt.Session("a")
	// Empty flush: pins the session's engine to generation 1 before the swap.
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Start a trace on generation 1, publish generation 2 mid-trace, finish
	// the trace: every one of its windows must score against p1.
	for _, c := range tr[:len(tr)/2] {
		if err := s.Observe(c); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := rt.SwapProfile(p2)
	if err != nil || gen != 2 {
		t.Fatalf("SwapProfile = %d, %v, want 2, nil", gen, err)
	}
	for _, c := range tr[len(tr)/2:] {
		if err := s.Observe(c); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("trace spanning the swap scored on generation %d, want 1", g)
	}
	if err := alertsEquivalent(hist, base1); err != nil {
		t.Fatalf("spanning trace diverged from the p1 baseline: %v", err)
	}

	// The boundary upgrade happened as that flush completed: the next trace
	// scores on generation 2, with history and sequence numbering continuous.
	hist2, err := s.ObserveTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("post-boundary trace scored on generation %d, want 2", g)
	}
	if err := alertsEquivalent(hist2[:len(hist)], hist); err != nil {
		t.Fatalf("upgrade did not preserve alert history: %v", err)
	}
	if err := alertsEquivalent(shiftSeq(hist2[len(hist):], len(tr)), base2); err != nil {
		t.Fatalf("post-upgrade trace diverged from the p2 baseline: %v", err)
	}

	st := rt.Stats()
	if st.Generation != 2 || st.Swaps != 1 {
		t.Fatalf("stats: gen=%d swaps=%d, want 2/1", st.Generation, st.Swaps)
	}
	if st.EnginesRetired == 0 {
		t.Fatal("boundary upgrade retired no engine")
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapProfile(p1); err == nil {
		t.Fatal("SwapProfile on a closed runtime succeeded")
	}
}

// TestChaosHotSwapBitIdentical is the acceptance criterion: 8 sessions
// replay mixed normal/attacked traces for several passes each while a
// swapper goroutine flips the serving profile between two generations as
// fast as it can. Every pass completes on exactly one generation (sessions
// only upgrade at trace boundaries), and its alerts must be bit-identical to
// a sequential Monitor over that generation's profile — zero panics, zero
// drops, zero quarantines, no goroutine leaks.
func TestChaosHotSwapBitIdentical(t *testing.T) {
	before := stdruntime.NumGoroutine()
	p1, traces := trainAppH(t)
	p2 := cloneProfile(t, p1)
	p2.Threshold = 0 // every window alerts: generations maximally distinct

	const sessions = 8
	const passes = 8
	streams := streamSet(traces, sessions)

	// Per-stream sequential baselines for both generations. Odd generations
	// serve p1 (New starts at 1; the swapper alternates p2, p1, p2, ...).
	base := [2][][]detect.Alert{make([][]detect.Alert, sessions), make([][]detect.Alert, sessions)}
	for i, tr := range streams {
		base[1][i] = core.NewMonitor(p1, nil).ObserveTrace(tr)
		base[0][i] = core.NewMonitor(p2, nil).ObserveTrace(tr)
	}

	rt := New(p1, WithWorkers(4), WithQueueDepth(64))

	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		next := p2
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rt.SwapProfile(next); err != nil {
				return
			}
			if next == p2 {
				next = p1
			} else {
				next = p2
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var genParity [2]atomic.Uint64 // traces completed on odd/even generations
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(fmt.Sprintf("swap-%02d", i))
			tr := streams[i]
			offset, prevLen := 0, 0
			for pass := 0; pass < passes; pass++ {
				for _, c := range tr {
					if err := s.Observe(c); err != nil {
						errs[i] = fmt.Errorf("pass %d: %w", pass, err)
						return
					}
				}
				history, err := s.Flush()
				if err != nil {
					errs[i] = fmt.Errorf("pass %d flush: %w", pass, err)
					return
				}
				gen := s.Generation()
				genParity[gen%2].Add(1)
				want := base[gen%2][i]
				if err := alertsEquivalent(shiftSeq(history[prevLen:], offset), want); err != nil {
					errs[i] = fmt.Errorf("pass %d on generation %d diverged from sequential Monitor: %w",
						pass, gen, err)
					return
				}
				offset += len(tr)
				prevLen = len(history)
				if pass == 0 {
					// Let a swap land on this session's generation before it
					// goes on, so the churn reaches every session however the
					// scheduler orders the swapper against the sessions: a
					// starved swapper would otherwise let a session run all
					// its passes on one generation.
					if err := awaitSwapPast(rt, gen); err != nil {
						errs[i] = err
						return
					}
				}
			}
			if _, err := s.Close(); err != nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	swapWG.Wait()

	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	st := rt.Stats()
	if st.Swaps == 0 {
		t.Error("no swaps happened; the chaos is vacuous")
	}
	if genParity[0].Load() == 0 || genParity[1].Load() == 0 {
		t.Errorf("traces completed only on one profile (odd=%d even=%d); coverage is vacuous",
			genParity[1].Load(), genParity[0].Load())
	}
	if st.Panics != 0 || st.Quarantined != 0 || st.Dropped != 0 {
		t.Errorf("failure counters moved under swap load: panics=%d quarantined=%d dropped=%d",
			st.Panics, st.Quarantined, st.Dropped)
	}
	if st.EnginesRetired == 0 {
		t.Error("generation churn retired no engines")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before)
}

// awaitSwapPast waits until rt publishes a generation newer than gen.
func awaitSwapPast(rt *Runtime, gen uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for rt.Generation() == gen {
		if time.Now().After(deadline) {
			return fmt.Errorf("no swap past generation %d within 10s", gen)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// TestPoolRejectsStaleEngines closes a session on generation 1, swaps, and
// checks a new session never receives the stale pooled engine: it scores on
// the new generation from its first call.
func TestPoolRejectsStaleEngines(t *testing.T) {
	p1, traces := trainAppH(t)
	p2 := cloneProfile(t, p1)
	p2.Threshold = 0
	tr := traces[0]

	rt := New(p1, WithWorkers(1))
	defer rt.Close()
	if _, err := rt.Session("old").ObserveTrace(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Session("old").Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapProfile(p2); err != nil {
		t.Fatal(err)
	}
	hist, err := rt.Session("new").ObserveTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if g := rt.Session("new").Generation(); g != 2 {
		t.Fatalf("new session scored on generation %d, want 2", g)
	}
	if err := alertsEquivalent(hist, core.NewMonitor(p2, nil).ObserveTrace(tr)); err != nil {
		t.Fatalf("new session diverged from the p2 baseline: %v", err)
	}
}
