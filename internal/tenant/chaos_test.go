package tenant

// Fleet chaos suite (run under -race; `make race` does): a deliberately
// overloaded "noisy" tenant must not perturb its neighbours. Isolation here
// is structural — each tenant's shard owns its queues and shed controller —
// so the proof obligations are behavioural: healthy tenants' alert
// histories stay bit-identical to their single-tenant baselines, their
// observe latency stays inside budget, and the fleet shuts down without
// leaking goroutines.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	stdruntime "runtime"
	"sync"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/detect"
	"adprom/internal/faultinject"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/shed"
)

// checkGoroutines waits for the goroutine count to return to the baseline,
// dumping stacks if shard workers or dispatcher goroutines leaked.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := stdruntime.NumGoroutine(); now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := stdruntime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, stdruntime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func alertsEquivalent(got, want []detect.Alert) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d alerts, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Abs(g.Score-w.Score) > 1e-9 || math.Abs(g.Threshold-w.Threshold) > 1e-9 {
			return fmt.Errorf("alert %d: score %v/%v, threshold %v/%v", i, g.Score, w.Score, g.Threshold, w.Threshold)
		}
		g.Score, g.Threshold, w.Score, w.Threshold = 0, 0, 0, 0
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("alert %d: %+v != %+v", i, g, w)
		}
	}
	return nil
}

// countRejections classifies shed errors, extracting exact counts from
// BatchShedError for batch ops and charging the whole op otherwise.
func countRejections(err error, n int) (int, bool) {
	var bse *runtime.BatchShedError
	if errors.As(err, &bse) {
		return bse.Shed, true
	}
	if errors.Is(err, runtime.ErrShed) {
		return n, true
	}
	return 0, false
}

// TestChaosNoisyTenantCannotStarveNeighbours floods one tenant far past its
// deliberately tiny capacity — stalled worker, shallow queue, risk-aware
// shedding — while two healthy tenants serve normal and attacked streams.
// The noisy tenant must shed (its own degradation); the healthy tenants
// must stay bit-identical to their sequential Monitor baselines with
// observe p99 inside budget; and closing the fleet must leak nothing.
func TestChaosNoisyTenantCannotStarveNeighbours(t *testing.T) {
	p, traces := trainAppH(t)
	before := stdruntime.NumGoroutine()

	r, err := NewRouter(Config{
		Static: map[string]*profile.Profile{"noisy": p, "healthy-a": p, "healthy-b": p},
		RuntimeOptions: []runtime.Option{
			runtime.WithWorkers(2),
			runtime.WithQueueDepth(64),
		},
		PerTenant: map[string][]runtime.Option{
			// The noisy tenant's shard is engineered to overload: one
			// stalled worker behind a shallow queue, shedding by risk.
			"noisy": {
				runtime.WithWorkers(1),
				runtime.WithQueueDepth(8),
				runtime.WithShedConfig(shed.Config{Seed: 1}),
				runtime.WithWorkerHook(faultinject.WorkerLatency(200 * time.Microsecond)),
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy corpus: per tenant, one normal and one attacked stream, with
	// sequential Monitor baselines computed up front.
	type stream struct {
		tenant, session string
		trace           collector.Trace
		want            []detect.Alert
		got             []detect.Alert
		err             error
	}
	var streams []*stream
	for _, tenant := range []string{"healthy-a", "healthy-b"} {
		for i, tr := range []collector.Trace{traces[0], attacked(traces[1%len(traces)])} {
			streams = append(streams, &stream{
				tenant:  tenant,
				session: fmt.Sprintf("s%d", i),
				trace:   tr,
				want:    core.NewMonitor(p, nil).ObserveTrace(tr),
			})
		}
	}

	var wg sync.WaitGroup
	// Noisy tenant: four sessions flooding the stalled shard full-tilt for
	// the whole duration of the healthy replays.
	noisyDone := make(chan faultinject.OverloadReport, 4)
	noisyErr := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.Session("noisy", fmt.Sprintf("flood-%d", i))
			if err != nil {
				noisyErr <- err
				return
			}
			gen := &faultinject.OverloadGen{Traces: traces, Passes: 6, Batch: 16}
			rep, err := gen.Run(s, countRejections)
			if err != nil {
				noisyErr <- err
				return
			}
			noisyDone <- rep
		}(i)
	}
	// Healthy tenants replay concurrently with the flood, several passes so
	// they overlap the noisy tenant's entire run.
	for _, st := range streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			s, err := r.Session(st.tenant, st.session)
			if err != nil {
				st.err = err
				return
			}
			for pass := 0; pass < 4; pass++ {
				for _, c := range st.trace {
					if err := s.Observe(c); err != nil {
						st.err = err
						return
					}
				}
				if pass < 3 {
					alerts, err := s.Flush()
					if err != nil {
						st.err = err
						return
					}
					st.got = append(st.got, alerts...)
				}
			}
			alerts, err := s.Close()
			st.got, st.err = append(st.got, alerts...), err
		}(st)
	}
	wg.Wait()
	close(noisyDone)
	close(noisyErr)
	for err := range noisyErr {
		t.Fatalf("noisy tenant hard failure: %v", err)
	}

	// The noisy tenant degraded itself: risk-aware admission shed calls.
	var totalShed int
	for rep := range noisyDone {
		totalShed += rep.Shed
	}
	noisyStats, ok := r.TenantStats("noisy")
	if !ok {
		t.Fatal("noisy tenant not resident")
	}
	if totalShed == 0 || noisyStats.Runtime.Shed == 0 {
		t.Fatalf("noisy tenant was never shed (reports=%d stats=%d): overload did not engage",
			totalShed, noisyStats.Runtime.Shed)
	}

	// Healthy tenants: zero shed, bit-identical alert histories. Each
	// session ran 4 passes, so the baseline repeats 4 times.
	for _, st := range streams {
		if st.err != nil {
			t.Fatalf("%s/%s: %v", st.tenant, st.session, st.err)
		}
		// The session's sequence numbers keep counting across passes while
		// each baseline Monitor restarts at zero, so pass i's expected
		// alerts carry a deterministic i*len(trace) offset.
		var want []detect.Alert
		for i := 0; i < 4; i++ {
			for _, a := range st.want {
				a.Seq += i * len(st.trace)
				want = append(want, a)
			}
		}
		if err := alertsEquivalent(st.got, want); err != nil {
			t.Errorf("%s/%s diverged from single-tenant baseline: %v", st.tenant, st.session, err)
		}
	}
	for _, tenant := range []string{"healthy-a", "healthy-b"} {
		st, ok := r.TenantStats(tenant)
		if !ok {
			t.Fatalf("%s not resident", tenant)
		}
		if st.Runtime.Shed != 0 || st.Runtime.Dropped != 0 {
			t.Errorf("%s shed=%d dropped=%d: the noisy tenant's overload leaked", tenant, st.Runtime.Shed, st.Runtime.Dropped)
		}
		// Latency budget: healthy shards run unstalled workers; their p99
		// observe latency must stay far from the noisy shard's stall-bound
		// floor. The absolute budget is generous for CI noise.
		if p99 := st.Runtime.P99Latency; p99 > 100*time.Millisecond {
			t.Errorf("%s observe p99 = %v, want < 100ms", tenant, p99)
		}
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before)
}
