package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/dataset"
)

// testPool is the bulk-frames tenants' collected traces, without training.
var testPool = sync.OnceValues(func() ([]*poolTrace, error) {
	var pool []*poolTrace
	for t, app := range dataset.CAApps() {
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			return nil, err
		}
		for _, tr := range traces {
			pool = append(pool, &poolTrace{tenant: t, calls: wireView(tr)})
		}
	}
	return pool, nil
})

// mustPool returns the pool for w's tenants: all three apps, or appb alone
// as tenant 0.
func mustPool(t *testing.T, w *workload) []*poolTrace {
	t.Helper()
	pool, err := testPool()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.tenants) == 3 {
		return pool
	}
	var appb []*poolTrace
	for _, pt := range pool {
		if pt.tenant == 1 {
			appb = append(appb, &poolTrace{calls: pt.calls})
		}
	}
	return appb
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// closedStream is the bytes a closed-loop connection writes for its first n
// runs, and the runs.
func closedStream(t *testing.T, seed int64, n int) ([]byte, []*runRec) {
	t.Helper()
	w := mustWorkload(t, "bulk-frames")
	g := newClosedGen(w, seed, 0, "r0", mustPool(t, w), newConnState(0, w.window, true))
	var buf []byte
	var runs []*runRec
	for i := 0; i < n; i++ {
		r := g.next()
		var err error
		if buf, err = appendRun(buf, w.codec, r, 0, int32(len(r.pt.calls)), true, true); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	return buf, runs
}

// openStream is the bytes an open-loop connection writes for a plan of d.
func openStream(t *testing.T, name string, seed int64, d time.Duration) []byte {
	t.Helper()
	w := mustWorkload(t, name)
	pool := mustPool(t, w)
	var attacks []*poolTrace
	if w.attackShare > 0 {
		attacks = pool[:5] // stands in for attacked runs: only the choice is under test
	}
	var buf []byte
	for _, e := range openPlan(w, seed, 0, "r0", d, pool, attacks, &connState{}) {
		var err error
		if buf, err = appendRun(buf, w.codec, e.run, e.lo, e.hi, e.final, false); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestSameSeedSameWireStream(t *testing.T) {
	a, _ := closedStream(t, 7, 2000)
	b, _ := closedStream(t, 7, 2000)
	if !bytes.Equal(a, b) {
		t.Error("bulk-frames: the same seed gave different wire streams")
	}
	for _, name := range []string{"chatty-ndjson", "attack-dense"} {
		a := openStream(t, name, 7, 300*time.Millisecond)
		b := openStream(t, name, 7, 300*time.Millisecond)
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different (or empty) wire streams", name)
		}
		if bytes.Equal(a, openStream(t, name, 8, 300*time.Millisecond)) {
			t.Errorf("%s: seeds 7 and 8 gave the same wire stream", name)
		}
	}
}

func TestOtherSeedReordersSameRuns(t *testing.T) {
	n := 3 * len(mustPool(t, mustWorkload(t, "bulk-frames"))) // whole epochs
	_, a := closedStream(t, 1, n)
	_, b := closedStream(t, 2, n)
	count := map[*poolTrace]int{}
	sameOrder, sameSession := true, true
	for i := range a {
		count[a[i].pt]++
		count[b[i].pt]--
		sameOrder = sameOrder && a[i].pt == b[i].pt
		sameSession = sameSession && a[i].sess.id == b[i].sess.id
	}
	for pt, c := range count {
		if c != 0 {
			t.Fatalf("run %p occurs %+d times more under seed 1 than seed 2", pt, c)
		}
	}
	if sameOrder || sameSession {
		t.Errorf("seeds 1 and 2 gave the same run order (%v) or session assignment (%v)", sameOrder, sameSession)
	}
}

// stallWriter blocks the first write after stallAt for stall.
type stallWriter struct {
	clk      clock
	stallAt  int64
	stall    time.Duration
	stalled  bool
	stallEnd int64
}

func (w *stallWriter) Write(p []byte) (int, error) {
	if !w.stalled && w.clk.now() >= w.stallAt {
		w.stalled = true
		time.Sleep(w.stall)
		w.stallEnd = w.clk.now()
	}
	return len(p), nil
}

func TestOpenLoopChargesStallFromSchedule(t *testing.T) {
	w := *mustWorkload(t, "attack-dense")
	w.runRate = 2000 // a run every millisecond on each connection
	pool := mustPool(t, &w)
	cs := &connState{}
	evs := openPlan(&w, 1, 0, "r0", 300*time.Millisecond, pool, pool[:1], cs)
	cs.inflight = make(chan *runRec, len(evs))
	clk := clock{base: time.Now()}
	start := clk.now() + int64(time.Millisecond)
	sw := &stallWriter{clk: clk, stallAt: start + int64(100*time.Millisecond), stall: 50 * time.Millisecond}
	s := &sender{clk: clk, cs: cs, codec: w.codec, w: sw}
	if err := s.runOpen(evs, start); err != nil {
		t.Fatal(err)
	}
	if !sw.stalled {
		t.Fatal("the writer never stalled")
	}
	if len(s.written) != len(evs) {
		t.Fatalf("%d of %d runs written", len(s.written), len(evs))
	}
	late, after := 0, 0
	for _, r := range s.written {
		if r.sched > sw.stallAt+int64(2*time.Millisecond) && r.sched < sw.stallEnd-int64(5*time.Millisecond) {
			// Due during the stall: sent only after it, and charged from
			// the schedule, so the stall shows in its latency.
			if r.sent < sw.stallEnd-int64(time.Millisecond) {
				t.Errorf("run due at %v sent at %v, before the stall ended at %v", r.sched, r.sent, sw.stallEnd)
			}
			if r.sent-r.sched >= int64(10*time.Millisecond) {
				late++
			}
		}
		if r.sched > sw.stallEnd+int64(50*time.Millisecond) && r.sent-r.sched < int64(20*time.Millisecond) {
			after++
		}
	}
	if late < 20 {
		t.Errorf("only %d runs due during the 50ms stall were charged 10ms or more", late)
	}
	if after == 0 {
		t.Error("the generator never caught up after the stall")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		q  float64
		v  float64
		ok bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.50, 50, true},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{0, 0.50, 0, false},
	} {
		v, ok := percentile(mk(c.n), c.q)
		if v != c.v || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%g) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.v, c.ok)
		}
	}
	rep := newReport()
	rep.pct("x", "ms", mk(500), 0.99, 1)
	if m := rep.metrics["x"]; m.Value != 0 || !strings.Contains(rep.notes["x"], "n=500") || !strings.Contains(rep.notes["x"], "not reported") {
		t.Errorf("unsupported p99 reported as %v (%q)", m.Value, rep.notes["x"])
	}
	rep.pct("y", "ms", mk(2000), 0.99, 1)
	if m := rep.metrics["y"]; m.Value != 1980 || rep.notes["y"] != "n=2000" {
		t.Errorf("p99 of 2000 = %v (%q), want 1980 (n=2000)", m.Value, rep.notes["y"])
	}
}
