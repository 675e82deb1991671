package detect

import "testing"

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestObservePerCallAllocFree pins the per-call observe path: a warm engine
// replays every apph training run one call at a time, then flushes and
// resets its window, without allocating. The runs raise no alerts, so every
// allocation would be observe-path overhead.
func TestObservePerCallAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p, traces, _ := trainAppH(t)
	e := NewEngine(p)
	replay := func() {
		for _, tr := range traces {
			for _, c := range tr {
				e.Observe(c)
			}
			e.Flush()
			e.ResetWindow()
		}
	}
	replay() // warm: the scorer and the window ring reach their full size
	if n := len(e.Alerts()); n != 0 {
		t.Fatalf("training runs raised %d alerts", n)
	}
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		t.Fatalf("per-call replay of %d runs allocates %v times", len(traces), allocs)
	}
}
