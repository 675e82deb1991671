package runtime

// Overload suite: the faultinject burst generator drives the runtime past
// queue capacity under backpressure and under risk-aware shedding (run under
// -race; `make race` does), proving the degradation contract — backpressure
// never loses a call, and shedding accounts for every shed call exactly and
// never sheds a session that has already alerted — with goroutine-leak
// checks.

import (
	"errors"
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/detect"
	"adprom/internal/faultinject"
	"adprom/internal/shed"
)

// neverOverload is the classifier for policies that must not reject: any
// error aborts the generator run and fails the test.
func neverOverload(err error, n int) (int, bool) { return 0, false }

// countRejections classifies shed errors, extracting exact counts from
// BatchShedError for batch ops and charging the whole op otherwise.
func countRejections(err error, n int) (int, bool) {
	var bse *BatchShedError
	if errors.As(err, &bse) {
		return bse.Shed, true
	}
	if errors.Is(err, ErrShed) {
		return n, true
	}
	return 0, false
}

// TestOverloadBlockNeverDrops floods a tiny queue behind slowed workers
// under the Block policy: every producer must simply wait, so not one call
// is dropped or shed and every alert history stays bit-identical to the
// sequential Monitor baseline.
func TestOverloadBlockNeverDrops(t *testing.T) {
	before := stdruntime.NumGoroutine()
	p, traces := trainAppH(t)
	const sessions = 6
	streams := streamSet(traces, sessions)

	baseline := make([][]detect.Alert, sessions)
	for i, tr := range streams {
		baseline[i] = core.NewMonitor(p, nil).ObserveTrace(tr)
	}

	rt := New(p,
		WithWorkers(2), WithQueueDepth(4),
		WithWorkerHook(faultinject.WorkerLatency(20*time.Microsecond)))

	var wg sync.WaitGroup
	var sent atomic.Uint64
	errs := make([]error, sessions)
	histories := make([][]detect.Alert, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(fmt.Sprintf("block-%02d", i))
			gen := faultinject.OverloadGen{Traces: []collector.Trace{streams[i]}}
			rep, err := gen.Run(s, neverOverload)
			if err != nil {
				errs[i] = err
				return
			}
			sent.Add(uint64(rep.Sent))
			if rep.Shed != 0 || rep.Admitted != rep.Sent {
				errs[i] = fmt.Errorf("block policy shed calls: %+v", rep)
				return
			}
			histories[i], errs[i] = s.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	var wantAlerts int
	for i := range baseline {
		wantAlerts += len(baseline[i])
		if err := alertsEquivalent(histories[i], baseline[i]); err != nil {
			t.Errorf("session %d diverged from sequential baseline under overload: %v", i, err)
		}
	}
	if wantAlerts == 0 {
		t.Fatal("baseline raised no alerts; the equivalence check is vacuous")
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Dropped != 0 || st.Shed != 0 {
		t.Errorf("Block policy lost calls: dropped=%d shed=%d", st.Dropped, st.Shed)
	}
	if st.Calls != sent.Load() {
		t.Errorf("scored %d calls, offered %d", st.Calls, sent.Load())
	}
	checkGoroutines(t, before)
}

// TestOverloadShedExactAccounting wedges the single worker and floods it
// with batches: whatever interleaving the race scheduler picks, the
// generator's per-error tally (exact batch counts via BatchShedError) must
// reconcile with Stats — every offered call is either scored or counted
// shed, never silently lost.
func TestOverloadShedExactAccounting(t *testing.T) {
	before := stdruntime.NumGoroutine()
	p, traces := trainAppH(t)
	gate := make(chan struct{})
	rt := New(p,
		WithWorkers(1), WithQueueDepth(8), WithShedConfig(shed.Config{Seed: 1}),
		WithWorkerHook(faultinject.WorkerGate(gate)))

	s := rt.Session("flood")
	gen := faultinject.OverloadGen{
		Traces: []collector.Trace{traces[0]},
		Passes: 4,
		Batch:  5,
	}
	rep, err := gen.Run(s, countRejections)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatalf("no calls shed past a wedged depth-8 queue: %+v", rep)
	}
	if rep.Admitted+rep.Shed != rep.Sent {
		t.Fatalf("accounting leak in the generator itself: %+v", rep)
	}

	close(gate)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Shed != uint64(rep.Shed) {
		t.Errorf("Stats.Shed = %d, generator counted %d rejected calls", st.Shed, rep.Shed)
	}
	if st.Calls != uint64(rep.Admitted) {
		t.Errorf("Stats.Calls = %d, generator counted %d admitted calls", st.Calls, rep.Admitted)
	}
	if st.QueueHighWater == 0 || st.QueueHighWater > 8 {
		t.Errorf("QueueHighWater = %d, want within (0, 8]", st.QueueHighWater)
	}
	checkGoroutines(t, before)
}

// TestObserveBatchPartialAdmission pins the exact partial-batch contract:
// with 5 of the 8-call budget already pending, an 8-call batch admits the
// 3-call prefix and reports BatchShedError{Shed: 5, Batch: 8}.
func TestObserveBatchPartialAdmission(t *testing.T) {
	p, traces := trainAppH(t)
	if len(traces[0]) < 8 {
		t.Fatalf("trace too short for the batch scenario: %d calls", len(traces[0]))
	}
	gate := make(chan struct{})
	rt := New(p,
		WithWorkers(1), WithQueueDepth(8), WithShedConfig(shed.Config{Seed: 1}),
		WithWorkerHook(faultinject.WorkerGate(gate)))

	s := rt.Session("partial")
	if err := s.ObserveBatch(traces[0][:5]); err != nil {
		t.Fatalf("first batch within budget rejected: %v", err)
	}
	// Wait for the wedged worker to dequeue the first batch, emptying the
	// pending ledger deterministically.
	deadline := time.Now().Add(5 * time.Second)
	for rt.WorkerQueueDepths()[0] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never dequeued the first batch; depths %v", rt.WorkerQueueDepths())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.ObserveBatch(traces[0][:5]); err != nil {
		t.Fatalf("second batch within budget rejected: %v", err)
	}
	err := s.ObserveBatch(traces[0][:8])
	if !errors.Is(err, ErrShed) {
		t.Fatalf("overflowing batch: err = %v, want ErrShed wrapper", err)
	}
	var bse *BatchShedError
	if !errors.As(err, &bse) {
		t.Fatalf("overflowing batch error %T carries no BatchShedError", err)
	}
	if bse.Shed != 5 || bse.Batch != 8 {
		t.Fatalf("partial admission reported %d of %d shed, want 5 of 8", bse.Shed, bse.Batch)
	}

	close(gate)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Shed != 5 {
		t.Errorf("Stats.Shed = %d, want exactly the 5 shed tail calls", st.Shed)
	}
	if st.Calls != 13 {
		t.Errorf("Stats.Calls = %d, want the 13 admitted calls (5+5+3)", st.Calls)
	}
}

// TestOverloadShedByRiskProtectsAlertBearers is the acceptance test for
// risk-aware shedding: after a lossless warm-up in which every third session
// raises alerts, a sustained overload burst must shed only quiet sessions —
// zero shed calls on any alert-bearing session — while reporting a nonzero
// shed rate and a bounded estimated miss probability.
func TestOverloadShedByRiskProtectsAlertBearers(t *testing.T) {
	before := stdruntime.NumGoroutine()
	p, traces := trainAppH(t)
	const sessions = 12
	streams := streamSet(traces, sessions)

	var slow atomic.Bool
	rt := New(p,
		WithWorkers(2), WithQueueDepth(16),
		WithShedConfig(shed.Config{
			Seed: 42,
			// Hold alert memory beyond the whole run so "recent alert"
			// covers every post-warm-up window deterministically.
			AlertMemory: 1 << 30,
		}),
		WithDecisionLog(1<<14, 1),
		WithWorkerHook(func(int, string) {
			if slow.Load() {
				time.Sleep(300 * time.Microsecond)
			}
		}))

	// Warm-up: replay each stream in 4-call chunks, waiting for the queues
	// to drain between chunks, so occupancy never reaches the high watermark
	// and nothing is shed while the controller learns which sessions alert.
	waitDrained := func() {
		deadline := time.Now().Add(10 * time.Second)
		for rt.Stats().QueueDepth != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("warm-up queue never drained; depths %v", rt.WorkerQueueDepths())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	handles := make([]*Session, sessions)
	for i := 0; i < sessions; i++ {
		s := rt.Session(fmt.Sprintf("risk-%02d", i))
		handles[i] = s
		for lo := 0; lo < len(streams[i]); lo += 4 {
			hi := lo + 4
			if hi > len(streams[i]) {
				hi = len(streams[i])
			}
			if err := s.ObserveBatch(streams[i][lo:hi]); err != nil {
				t.Fatalf("warm-up session %d: %v", i, err)
			}
			waitDrained()
		}
	}
	if st := rt.Stats(); st.Shed != 0 {
		t.Fatalf("warm-up shed %d calls; the protection check needs a lossless baseline", st.Shed)
	}
	// The attacked sessions (every third) must carry a recent alert into the
	// burst, or the never-shed guarantee would be checked vacuously.
	for i := 2; i < sessions; i += 3 {
		alerts, err := handles[i].Flush()
		if err != nil {
			t.Fatalf("warm-up flush session %d: %v", i, err)
		}
		if len(alerts) == 0 {
			t.Fatalf("attacked session %d raised no warm-up alert; the guarantee check is vacuous", i)
		}
	}

	// Overload burst: slowed workers, every session flooding concurrently.
	slow.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := faultinject.OverloadGen{
				Traces: []collector.Trace{streams[i]},
				Passes: 2,
				Batch:  3,
			}
			rep, err := gen.Run(handles[i], countRejections)
			if err != nil {
				errs[i] = err
				return
			}
			if i%3 == 2 && rep.Shed != 0 {
				errs[i] = fmt.Errorf("alert-bearing session saw %d rejections: %+v", rep.Shed, rep)
			}
		}(i)
	}
	wg.Wait()
	slow.Store(false)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	// The core guarantee: not one call of an alert-bearing session was shed.
	for i := 0; i < sessions; i++ {
		if i%3 != 2 {
			continue
		}
		if n := handles[i].ShedCalls(); n != 0 {
			t.Errorf("alert-bearing session %d had %d calls shed", i, n)
		}
	}
	for i := 0; i < sessions; i++ {
		if _, err := handles[i].Close(); err != nil {
			t.Fatalf("close session %d: %v", i, err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.Shed == 0 {
		t.Fatal("overload burst shed nothing; the degradation path went unexercised")
	}
	if st.ShedRate <= 0 || st.ShedRate >= 1 {
		t.Errorf("ShedRate = %v, want within (0, 1)", st.ShedRate)
	}
	if st.EstimatedMissProb <= 0 || st.EstimatedMissProb >= 1 {
		t.Errorf("EstimatedMissProb = %v, want within (0, 1): shed mass is low-risk by construction", st.EstimatedMissProb)
	}
	ss := rt.ShedSnapshot()
	if ss.ShedDecisions == 0 || ss.ShedCalls != st.Shed {
		t.Errorf("shed snapshot %+v inconsistent with Stats.Shed=%d", ss, st.Shed)
	}
	if ss.RiskShed <= 0 || ss.RiskAdmitted <= 0 {
		t.Errorf("risk mass accounting incomplete: %+v", ss)
	}

	// Provenance: shed decisions must be visible with risk and occupancy.
	var shedDecisions int
	for _, d := range rt.Decisions(0) {
		if !d.Shed {
			continue
		}
		shedDecisions++
		if d.ShedCalls <= 0 || d.SessionShed == 0 {
			t.Fatalf("shed decision without counts: %+v", d)
		}
		if d.Risk < 0 || d.Risk >= 1 {
			t.Fatalf("shed decision risk %v outside the sheddable band [0, 1): %+v", d.Risk, d)
		}
		if d.Session == "" || d.UnixNanos == 0 {
			t.Fatalf("shed decision missing identity: %+v", d)
		}
	}
	if shedDecisions == 0 {
		t.Error("no shed decisions recorded in the provenance ring")
	}
	checkGoroutines(t, before)
}

// TestPartialAdmissionScoresItsPrefix replays the partial-admission scenario
// and checks what the worker scored. Each batch is copied into a pooled
// buffer, the producer scribbles over its own slice as soon as the call
// returns, and the 3-call prefix admitted from the last batch shares its
// buffer with the 5 shed calls. The judgement the close makes over the 13
// admitted calls must carry the bits a lone engine gives those calls.
func TestPartialAdmissionScoresItsPrefix(t *testing.T) {
	p, traces := trainAppH(t)
	tr := traces[0]
	gate := make(chan struct{})
	var mu sync.Mutex
	var got []float64
	rt := New(p,
		WithWorkers(1), WithQueueDepth(8), WithShedConfig(shed.Config{Seed: 1}),
		WithWorkerHook(faultinject.WorkerGate(gate)),
		WithJudgeObserver(func(_ string, _ int, _ time.Time, score float64, _ bool) {
			mu.Lock()
			got = append(got, score)
			mu.Unlock()
		}))
	s := rt.Session("partial")
	foreign := collector.Call{Label: "curl_easy_perform", Name: "curl_easy_perform", Caller: "main"}
	observe := func(n int) error {
		batch := append([]collector.Call(nil), tr[:n]...)
		err := s.ObserveBatch(batch)
		for i := range batch {
			batch[i] = foreign
		}
		return err
	}
	if err := observe(5); err != nil {
		t.Fatalf("first batch within budget rejected: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rt.WorkerQueueDepths()[0] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never dequeued the first batch; depths %v", rt.WorkerQueueDepths())
		}
		time.Sleep(time.Millisecond)
	}
	if err := observe(5); err != nil {
		t.Fatalf("second batch within budget rejected: %v", err)
	}
	var bse *BatchShedError
	if err := observe(8); !errors.As(err, &bse) || bse.Shed != 5 {
		t.Fatalf("overflowing batch: err = %v, want 5 of 8 shed", err)
	}
	close(gate)
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	var want []float64
	e := detect.NewEngine(p)
	e.SetJudgeHook(func(j detect.Judgement) { want = append(want, j.Score) })
	e.ObserveBatch(tr[:5])
	e.ObserveBatch(tr[:5])
	e.ObserveBatch(tr[:3])
	e.Flush()
	if len(want) == 0 {
		t.Fatal("the admitted calls were never judged; the comparison would be vacuous")
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runtime judged the admitted calls %v, a lone engine %v", got, want)
	}
}
