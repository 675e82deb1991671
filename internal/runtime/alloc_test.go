package runtime

import "testing"

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestObservePerCallAllocFree pins the per-call ingest path: Session.Observe
// carries its call inline through the queue to the engine, so replaying a
// run call by call and flushing it allocates no more than the flush alone
// (its reply channel and history copy).
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
