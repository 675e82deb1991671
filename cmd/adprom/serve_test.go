package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adprom"
	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/detect"
	"adprom/internal/faultinject"
	"adprom/internal/profile"
	"adprom/internal/runtime"
)

// TestServeReplayMatchesMonitor drives serve's built-in replay client end to
// end: `serve -app appb -streams 4 -repeat 2` streams appb's traces over
// loopback TCP into a one-tenant fleet through the real codec, at -batch 64,
// at -batch 0 (one event per call), and as NDJSON. The shard must judge
// exactly the calls sent, ingest must count no decode error and no sink
// reject, and every session must raise the alerts a sequential Monitor
// raises on the same traces with a flush after each trace. The served
// profile's threshold is raised so that healthy traffic alerts and the
// comparison has alerts to compare.
func TestServeReplayMatchesMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile and replays streams")
	}
	const streams, repeat = 4, 2
	app, err := lookupApp("appb")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trainApp(app)
	if err != nil {
		t.Fatal(err)
	}
	p.Threshold /= 4
	path := filepath.Join(t.TempDir(), "appb.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	served, err := profile.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	var wantCalls uint64
	want := map[string][]detect.Alert{}
	for i := 0; i < streams; i++ {
		m := core.NewMonitor(served, nil)
		for pass := 0; pass < repeat; pass++ {
			tr := traces[(i+pass)%len(traces)]
			wantCalls += uint64(len(tr))
			m.ObserveTrace(tr)
		}
		want[streamSession(i)] = m.Alerts()
	}
	if len(want[streamSession(0)]) == 0 {
		t.Fatal("the raised threshold flags nothing; the alert comparison would be vacuous")
	}
	total := 0
	for _, as := range want {
		total += len(as)
	}
	t.Logf("comparing %d Monitor alerts over %d calls per transport", total, wantCalls)

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"batch64", []string{"-batch", "64"}},
		{"per-call", []string{"-batch", "0"}},
		{"ndjson", []string{"-ingest-codec", "ndjson"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := parseServe(append([]string{
				"-app", "appb", "-profile", path, "-workers", "2",
				"-streams", "4", "-repeat", "2",
			}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := map[string][]detect.Alert{}
			sc.alert = func(session string, a detect.Alert) {
				mu.Lock()
				got[session] = append(got[session], a)
				mu.Unlock()
			}
			d, err := startDaemon(sc)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			if err := d.replay(); err != nil {
				t.Fatalf("replay: %v", err)
			}
			// The replay returns once the server has closed every connection,
			// so every call sent has been judged.
			st, ok := d.router.TenantStats("appb")
			if !ok {
				t.Fatal("appb shard not resident after the replay")
			}
			if st.Runtime.Calls != wantCalls {
				t.Errorf("shard judged %d calls, replay sent %d", st.Runtime.Calls, wantCalls)
			}
			if in := d.ingest.Stats(); in.DecodeErrors != 0 || in.SinkRejects != 0 || in.Calls != wantCalls {
				t.Errorf("ingest stats %s: want 0 decode errors, 0 sink rejects, %d calls", in, wantCalls)
			}
			if err := d.close(); err != nil { // drains the alert sink
				t.Fatal(err)
			}
			for i := 0; i < streams; i++ {
				id := streamSession(i)
				g, w := got[id], want[id]
				sort.SliceStable(g, func(a, b int) bool { return g[a].Seq < g[b].Seq })
				if len(g) != len(w) {
					t.Errorf("%s: %d alerts through the fleet, %d through the Monitor", id, len(g), len(w))
					continue
				}
				for k := range w {
					if g[k].Seq != w[k].Seq || g[k].Flag != w[k].Flag ||
						math.Float64bits(g[k].Score) != math.Float64bits(w[k].Score) {
						t.Errorf("%s alert %d: fleet %v seq=%d score=%v, Monitor %v seq=%d score=%v",
							id, k, g[k].Flag, g[k].Seq, g[k].Score, w[k].Flag, w[k].Seq, w[k].Score)
					}
				}
			}
		})
	}
}

// TestServeOverloadSheds runs the daemon past its capacity: `serve -app apph
// -streams 24 -workers 2 -queue 32 -repeat 2 -shed` with every worker op
// stalled 500µs, so the replay offers far more than the workers drain. The
// fleet's /metrics must carry the shedding families with the tenant label,
// and the shed counter must be positive: a zero means the burst was
// absorbed and the degradation path went unexercised.
func TestServeOverloadSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile and replays streams")
	}
	sc, err := parseServe([]string{
		"-app", "apph", "-streams", "24", "-workers", "2", "-queue", "32", "-repeat", "2", "-shed",
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.faults = []runtime.Option{runtime.WithWorkerHook(faultinject.WorkerLatency(500 * time.Microsecond))}
	d, err := startDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}

	h := httptest.NewServer(adprom.NewFleetIntrospectionHandler(d.router, d.ingest))
	defer h.Close()
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{} // series → value
	for _, line := range strings.Split(string(body), "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(series, "#") {
			samples[series] = value
		}
	}
	for _, series := range []string{
		`adprom_shed_calls_total{tenant="apph"}`,
		`adprom_shed_rate{tenant="apph"}`,
		`adprom_shed_estimated_miss_probability{tenant="apph"}`,
		`adprom_shed_decisions_total{tenant="apph"}`,
		`adprom_queue_high_water{tenant="apph"}`,
		`adprom_worker_queue_depth{tenant="apph",worker="0"}`,
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("/metrics has no %s sample", series)
		}
	}
	shedCalls := samples[`adprom_shed_calls_total{tenant="apph"}`]
	if v, err := strconv.ParseFloat(shedCalls, 64); err != nil || v <= 0 {
		t.Errorf(`adprom_shed_calls_total{tenant="apph"} = %q, want > 0`, shedCalls)
	}
	t.Logf("%s calls shed", shedCalls)
}

// TestServeChaosIsolatesFaults replays 16 streams × 4 passes through a
// daemon whose shard runs with a crashing, slow alert sink (a panic every
// 5th delivery, 1ms per delivery, behind a 16-alert buffer and a 50ms
// hand-off), an engine panic on the first stream's first judgement, and a
// worker crash on the last stream's third op. The served profile's
// threshold is raised so that clean traffic alerts and the sink really
// runs. The faults must quarantine at least one stream but never all of
// them, and every injector must have fired.
func TestServeChaosIsolatesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile and replays streams")
	}
	const streams = 16
	app, err := lookupApp("apph")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trainApp(app)
	if err != nil {
		t.Fatal(err)
	}
	p.Threshold /= 4
	path := filepath.Join(t.TempDir(), "apph.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sc, err := parseServe([]string{
		"-app", "apph", "-profile", path, "-streams", strconv.Itoa(streams), "-repeat", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	engineVictim, workerVictim := streamSession(0), streamSession(streams-1)
	sink := faultinject.NewSink(nil, faultinject.PanicEvery(5), faultinject.Latency(time.Millisecond))
	engine := faultinject.NewEngineFault(faultinject.FaultPanic, 1, func(id string) bool { return id == engineVictim })
	worker := faultinject.NewWorkerFault(workerVictim, 3)
	sc.faults = []runtime.Option{
		runtime.WithAlertFunc(sink.Deliver),
		runtime.WithSinkBuffer(16),
		runtime.WithJudgeHook(engine.Hook),
		runtime.WithWorkerHook(worker.Hook),
	}
	d, err := startDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.replay(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	sh, err := d.router.Shard("apph")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.close(); err != nil { // drains the alert sink
		t.Fatal(err)
	}
	st := sh.Runtime().Stats()
	t.Logf("%d/%d streams quarantined; sink deliveries=%d panics=%d", st.Quarantined, streams, sink.Calls(), sink.Panics())
	if st.Quarantined < 1 || st.Quarantined >= streams {
		t.Errorf("%d of %d streams quarantined, want at least one and not all", st.Quarantined, streams)
	}
	if !engine.Fired(engineVictim) {
		t.Errorf("engine fault never fired on %s", engineVictim)
	}
	if !worker.Fired() {
		t.Errorf("worker fault never fired on %s", workerVictim)
	}
	if sink.Panics() == 0 || st.SinkPanics == 0 {
		t.Errorf("the alert sink never panicked (sink saw %d deliveries, %d panics; runtime counted %d)",
			sink.Calls(), sink.Panics(), st.SinkPanics)
	}
}
