package runtime

import (
	stdruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"adprom/internal/detect"
)

// liveHeap returns the bytes of heap still reachable after a collection.
func liveHeap() uint64 {
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// medianDuration returns the median of ds, which it sorts.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestSessionStateBounded soaks one hostile session: it observes an
// attacked run and flushes it 20,000 times. A flush hands over the alerts
// raised since the previous one and the session keeps none of them, so
// every reply holds one run's alerts, and neither the live heap nor the
// flush latency grows with the runs.
func TestSessionStateBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's overhead swamps the heap and latency bounds")
	}
	p, traces := trainAppH(t)
	rt := New(p, WithWorkers(1))
	defer rt.Close()
	s := rt.Session("soak")
	run := attackStream(traces)

	const runs = 20000
	lat := make([]time.Duration, runs)
	heap := map[int]uint64{}
	perRun := 0
	for i := 1; i <= runs; i++ {
		if err := s.ObserveBatch(run); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		alerts, err := s.Flush()
		lat[i-1] = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if perRun = len(alerts); perRun == 0 {
				t.Fatal("the attacked run raised no alert; the soak is vacuous")
			}
		} else if len(alerts) != perRun {
			t.Fatalf("run %d: flush returned %d alerts, run 1 returned %d", i, len(alerts), perRun)
		}
		if i == 1 || i == 1000 || i == 5000 || i == runs {
			heap[i] = liveHeap()
		}
	}
	// The median of the 100 runs up to each mark, run 1's own latency.
	for _, i := range []int{1, 1000, 5000, runs} {
		l := lat[0]
		if i > 1 {
			l = medianDuration(slices.Clone(lat[i-100 : i]))
		}
		t.Logf("run %5d: live heap %.1f MiB, flush %v", i, float64(heap[i])/(1<<20), l)
	}
	if grew := int64(heap[runs]) - int64(heap[1000]); grew > 2<<20 {
		t.Errorf("live heap grew %.1f MiB from run 1,000 to run %d", float64(grew)/(1<<20), runs)
	}
	early := medianDuration(slices.Clone(lat[100:200]))
	late := medianDuration(slices.Clone(lat[runs-100:]))
	if late > 2*early {
		t.Errorf("median flush of the last 100 runs took %v, of runs 101–200 %v", late, early)
	}
}

// TestSlowSinkLosesNothingThatFits stalls the sink's first delivery for
// 1.2 s while an attacked run's alerts queue behind it. They all fit in the
// buffer, so they wait for the sink: every alert is delivered, in order,
// and none is shed.
func TestSlowSinkLosesNothingThatFits(t *testing.T) {
	if raceEnabled {
		t.Skip("timing-dependent; the chaos suite covers the sink under -race")
	}
	p, traces := trainAppH(t)
	var (
		mu  sync.Mutex
		got []detect.Alert
	)
	const buffer = 8
	rt := New(p, WithWorkers(1), WithSinkBuffer(buffer),
		WithAlertFunc(func(_ string, a detect.Alert) {
			mu.Lock()
			got = append(got, a)
			first := len(got) == 1
			mu.Unlock()
			if first {
				time.Sleep(1200 * time.Millisecond)
			}
		}))
	s := rt.Session("slow-sink")
	if err := s.ObserveBatch(attackStream(traces)); err != nil {
		t.Fatal(err)
	}
	want, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 || len(want) > buffer {
		t.Fatalf("the run raised %d alerts; the check needs 2 to %d", len(want), buffer)
	}
	if err := rt.Close(); err != nil { // waits for the sink to take every buffered alert
		t.Fatal(err)
	}
	if st := rt.Stats(); st.SinkDropped != 0 {
		t.Errorf("SinkDropped = %d for alerts that fit in the buffer", st.SinkDropped)
	}
	if err := alertsEquivalent(got, want); err != nil {
		t.Errorf("the sink received other alerts than the flush returned: %v", err)
	}
}
