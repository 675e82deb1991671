package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
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
			sc.alert = func(_, session string, a detect.Alert) {
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
	engine := faultinject.NewEngineFault(1, func(id string) bool { return id == engineVictim })
	worker := faultinject.NewWorkerFault(workerVictim, 3)
	sc.faults = []runtime.Option{
		runtime.WithAlertFunc(sink.Deliver),
		runtime.WithSinkBuffer(16),
		runtime.WithJudgeObserver(engine.Hook),
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

// TestServeHotSwapsPublishedGenerations runs the fleet daemon over a profile
// store with one resident slot. A generation published with `adprom profile
// publish` goes live on the resident tenant, the tenant's eviction and
// reload keep it, and a profile file copied into the lineage beside the
// manifest never goes live: the next publish is the reloaded shard's one
// swap.
func TestServeHotSwapsPublishedGenerations(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile")
	}
	const watchEvery = 20 * time.Millisecond
	app, err := lookupApp("apph")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trainApp(app)
	if err != nil {
		t.Fatal(err)
	}
	files, dir := t.TempDir(), t.TempDir()
	thr1, thr2, thr3 := p.Threshold, p.Threshold-1, p.Threshold-2
	save := func(name string, threshold float64) string {
		t.Helper()
		path := filepath.Join(files, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		p.Threshold = threshold
		if err := p.Save(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	gen1, gen2, gen3 := save("gen1.adprof", thr1), save("gen2.adprof", thr2), save("gen3.adprof", thr3)
	publish := func(tenant, path string) {
		t.Helper()
		if err := cmdProfile([]string{"publish", "-tenant-dir", dir, "-tenant", tenant, path}); err != nil {
			t.Fatalf("publishing %s for %s: %v", path, tenant, err)
		}
	}
	publish("apph", gen1)
	publish("other", gen1)

	sc, err := parseServe([]string{
		"-tenants", "apph", "-ingest-addr", "127.0.0.1:0", "-tenant-dir", dir,
		"-tenant-max-active", "1", "-watch-interval", watchEvery.String(), "-workers", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	route := func(tenant string) *runtime.Runtime {
		t.Helper()
		sh, err := d.router.Shard(tenant)
		if err != nil {
			t.Fatal(err)
		}
		return sh.Runtime()
	}

	rt := route("apph")
	if got := rt.Profile().Threshold; got != thr1 {
		t.Fatalf("apph starts at threshold %v, want generation 1's %v", got, thr1)
	}
	waitThreshold := func(rt *runtime.Runtime, want float64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); rt.Profile().Threshold != want; time.Sleep(watchEvery) {
			if time.Now().After(deadline) {
				t.Fatalf("published threshold %v not live after 10s: apph runtime %s", want, rt.Stats())
			}
		}
	}
	publish("apph", gen2)
	waitThreshold(rt, thr2)
	if g := rt.Generation(); g != 2 {
		t.Fatalf("apph at runtime generation %d after one publish, want 2", g)
	}

	route("other") // evicts apph
	if rs := d.router.Stats(); rs.Evictions != 1 {
		t.Fatalf("routing other with one slot: %+v, want apph evicted", rs)
	}
	rt = route("apph")
	if got := rt.Profile().Threshold; got != thr2 {
		t.Fatalf("reloaded apph serves threshold %v, want published generation 2's %v", got, thr2)
	}

	lineage := filepath.Join(dir, "apph")
	stray, err := os.ReadFile(filepath.Join(lineage, "gen-000001.adprof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(lineage, "stray.adprof"), stray, 0o644); err != nil {
		t.Fatal(err)
	}
	publish("apph", gen3)
	waitThreshold(rt, thr3)
	if g := rt.Generation(); g != 2 {
		t.Fatalf("a stray copy and one publish moved the reloaded apph to runtime generation %d, want 2", g)
	}
}

// syncBuffer is a bytes.Buffer the daemon's sink goroutines may write to
// concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeAlertLinesNameTenant streams one session ID, ci, to two tenants
// over the daemon's TCP ingest, as the CI fleet smoke does: three calls
// from main that neither program issues there, then a close. Both tenants
// alert, and every alert line, and with -log every alert record, names the
// tenant that raised it.
func TestServeAlertLinesNameTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two profiles")
	}
	for _, tc := range []struct {
		name   string
		args   []string
		prefix string // before "tenant=<id> session=ci" on each tenant's line
	}{
		{"stdout", nil, "alert: "},
		{"log", []string{"-log"}, "msg=alert "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := parseServe(append([]string{
				"-tenants", "apph,appb", "-ingest-addr", "127.0.0.1:0", "-workers", "1",
			}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			var out syncBuffer
			sc.alertOut = &out
			if sc.log != nil {
				sc.log = slog.New(slog.NewTextHandler(&out, nil))
			}
			d, err := startDaemon(sc)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			conn, err := net.Dial("tcp", d.addr)
			if err != nil {
				t.Fatal(err)
			}
			tenants := []string{"apph", "appb"}
			for _, tn := range tenants {
				fmt.Fprintf(conn, `{"tenant":%q,"session":"ci","calls":[{"name":"fopen","caller":"main"},{"name":"fread","caller":"main"},{"name":"fclose","caller":"main"}]}`+"\n", tn)
				fmt.Fprintf(conn, `{"tenant":%q,"session":"ci","op":"close"}`+"\n", tn)
			}
			conn.Close()
			deadline := time.Now().Add(10 * time.Second)
			for _, tn := range tenants {
				for {
					st, ok := d.router.TenantStats(tn)
					if ok && st.Runtime.Calls == 3 && st.Runtime.SessionsOpened == 1 && st.Runtime.ActiveSessions == 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("tenant %s never judged and closed its session: %+v", tn, st)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if err := d.close(); err != nil { // drains the alert sinks
				t.Fatal(err)
			}
			text := out.String()
			for _, tn := range tenants {
				if !strings.Contains(text, tc.prefix+"tenant="+tn+" session=ci ") {
					t.Errorf("no %stenant=%s session=ci line in:\n%s", tc.prefix, tn, text)
				}
			}
			for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
				if strings.Contains(line, tc.prefix) && !strings.Contains(line, tc.prefix+"tenant=") {
					t.Errorf("alert line names no tenant: %s", line)
				}
			}
		})
	}
}
