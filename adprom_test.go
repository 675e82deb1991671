package adprom

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestFacadeQuickstart exercises the public API end to end: build a program,
// run it, train, and detect the Figure 1 selectivity attack.
func TestFacadeQuickstart(t *testing.T) {
	build := func(where string) *Program {
		b := NewProgram("facade")
		m := b.Func("main")
		e := m.Block()
		loop := m.Block()
		body := m.Block()
		done := m.Block()
		e.CallTo("conn", "PQconnectdb")
		e.CallTo("res", "PQexec", V("conn"), S("SELECT * FROM t WHERE "+where))
		e.CallTo("n", "PQntuples", V("res"))
		e.Assign("i", I(0))
		e.Goto(loop)
		loop.If(Lt(V("i"), V("n")), body, done)
		body.CallTo("x", "PQgetvalue", V("res"), V("i"), I(0))
		body.Call("printf", S("%s"), V("x"))
		body.Assign("i", Add(V("i"), I(1)))
		body.Goto(loop)
		done.Ret()
		return b.MustBuild()
	}

	db := NewDatabase()
	db.MustExec("CREATE TABLE t (a INT)")
	for i := 0; i < 6; i++ {
		db.MustExec("INSERT INTO t VALUES (" + string(rune('0'+i)) + ")")
	}

	run := func(p *Program) Trace {
		world := NewWorld(db)
		world.ResetIO()
		ip := NewInterp(p, world)
		col := NewCollector(ModeADPROM)
		ip.AddHook(col.Hook())
		if _, err := ip.Run(); err != nil {
			t.Fatal(err)
		}
		return col.Trace()
	}

	normal := build("a = 3")
	var traces []Trace
	for i := 0; i < 6; i++ {
		traces = append(traces, run(normal))
	}
	prof, sa, err := Train(normal, traces, TrainOptions{})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if sa.PCTM == nil || prof.Threshold >= 0 {
		t.Fatal("training artefacts missing")
	}

	if alerts := NewMonitor(prof, nil).ObserveTrace(run(normal)); len(alerts) != 0 {
		t.Fatalf("normal run alerted: %+v", alerts)
	}

	var got []Alert
	sink := AlertFunc(func(a Alert) { got = append(got, a) })
	mon := NewMonitor(prof, WithSink(sink))
	all := mon.ObserveTrace(run(build("a >= 0")))
	if len(all) == 0 {
		t.Fatal("selectivity attack not detected")
	}
	dl := false
	for _, a := range all {
		if a.Flag == FlagDL && len(a.Origins) > 0 {
			dl = true
		}
	}
	if !dl {
		t.Error("no DL alert with origins")
	}
	if len(got) == 0 {
		t.Error("sink not invoked")
	}
}

// TestFacadeOptions covers the functional-option surface: monitor options
// and the concurrent Runtime.
func TestFacadeOptions(t *testing.T) {
	app := HospitalApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := Train(app.Prog, traces, TrainOptions{Train: HMMOptions{MaxIters: 4}})
	if err != nil {
		t.Fatal(err)
	}

	// WithThreshold(0) forces every window below threshold; WithWindowSize
	// shrinks the window so a short trace still completes several of them.
	mon := NewMonitor(prof, WithThreshold(0), WithWindowSize(5))
	if mon.Engine().Threshold() != 0 || mon.Engine().WindowLen() != 5 {
		t.Fatalf("options not applied: threshold=%v window=%d",
			mon.Engine().Threshold(), mon.Engine().WindowLen())
	}
	if alerts := mon.ObserveTrace(traces[0]); len(alerts) == 0 {
		t.Fatal("threshold 0 raised no alerts")
	}

	var got []Alert
	dep := NewMonitor(prof, WithSink(AlertFunc(func(a Alert) { got = append(got, a) })), WithThreshold(0))
	if alerts := dep.ObserveTrace(traces[0]); len(alerts) == 0 || len(got) != len(alerts) {
		t.Fatalf("WithSink: %d alerts, %d via sink", len(alerts), len(got))
	}

	var mu sync.Mutex
	perSession := map[string]int{}
	rt := NewRuntime(prof,
		WithWorkers(2), WithQueueDepth(16),
		WithSessionSink(func(id string, a Alert) {
			mu.Lock()
			perSession[id]++
			mu.Unlock()
		}))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := rt.Session(fmt.Sprintf("s%d", i))
			if _, err := s.ObserveTrace(traces[i%len(traces)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Calls == 0 || st.ActiveSessions != 0 {
		t.Fatalf("runtime stats: %v", st)
	}
	if err := rt.Session("late").Observe(Call{Label: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("observe after close: %v", err)
	}
	// Normal traces through the trained profile raise nothing.
	mu.Lock()
	defer mu.Unlock()
	if len(perSession) != 0 && st.AlertTotal() == 0 {
		t.Fatalf("sink fired without counted alerts: %v", perSession)
	}
}

// TestFacadeFaultToleranceSurface covers the robustness additions: context
// ingest and sink isolation options — all through the public facade.
func TestFacadeFaultToleranceSurface(t *testing.T) {
	app := HospitalApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := Train(app.Prog, traces, TrainOptions{Train: HMMOptions{MaxIters: 4}})
	if err != nil {
		t.Fatal(err)
	}

	rt := NewRuntime(prof, WithWorkers(2), WithSinkBuffer(8))
	defer rt.Close()

	ctx := context.Background()
	healthy := rt.Session("healthy")
	for _, c := range traces[0] {
		if err := healthy.ObserveContext(ctx, c); err != nil {
			t.Fatalf("healthy ObserveContext: %v", err)
		}
	}
	if _, err := healthy.FlushContext(ctx); err != nil {
		t.Fatalf("healthy FlushContext: %v", err)
	}

	if err := rt.CloseContext(ctx); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
}

func TestFacadeTrainContext(t *testing.T) {
	app := HospitalApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := TrainContext(ctx, app.Prog, traces, TrainOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled TrainContext: %v", err)
	}
	if _, err := app.CollectTracesContext(ctx, ModeADPROM); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CollectTracesContext: %v", err)
	}
}

func TestFacadeFlagJSON(t *testing.T) {
	b, err := json.Marshal(FlagDL)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"DL"` {
		t.Fatalf("FlagDL marshals to %s", b)
	}
	var f Flag
	if err := json.Unmarshal(b, &f); err != nil || f != FlagDL {
		t.Fatalf("round trip: %v %v", f, err)
	}
}

// TestFacadeNilMonitorOption pins the compatibility contract: a nil
// MonitorOption is explicitly ignored, so the legacy NewMonitor(p, nil)
// spelling configures nothing and behaves exactly like NewMonitor(p) — and
// nils interleaved with real options are skipped without disturbing them.
func TestFacadeNilMonitorOption(t *testing.T) {
	app := HospitalApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := Train(app.Prog, traces, TrainOptions{Train: HMMOptions{MaxIters: 4}})
	if err != nil {
		t.Fatal(err)
	}

	plain := NewMonitor(prof)
	legacy := NewMonitor(prof, nil)
	if legacy.Engine().Threshold() != plain.Engine().Threshold() ||
		legacy.Engine().WindowLen() != plain.Engine().WindowLen() {
		t.Fatalf("nil option changed configuration: threshold %v/%v window %d/%d",
			legacy.Engine().Threshold(), plain.Engine().Threshold(),
			legacy.Engine().WindowLen(), plain.Engine().WindowLen())
	}
	want := plain.ObserveTrace(traces[0])
	got := legacy.ObserveTrace(traces[0])
	if len(got) != len(want) {
		t.Fatalf("nil option changed behaviour: %d alerts vs %d", len(got), len(want))
	}

	mixed := NewMonitor(prof, nil, WithThreshold(0), nil, WithWindowSize(5), nil)
	if mixed.Engine().Threshold() != 0 || mixed.Engine().WindowLen() != 5 {
		t.Fatalf("nils disturbed real options: threshold=%v window=%d",
			mixed.Engine().Threshold(), mixed.Engine().WindowLen())
	}
}

// TestFacadeLifecycleSurface drives a profile's generations through the
// public API: profile save/load with typed errors, manual SwapProfile with
// generation accounting, and the registry.
func TestFacadeLifecycleSurface(t *testing.T) {
	app := HospitalApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := Train(app.Prog, traces, TrainOptions{Train: HMMOptions{MaxIters: 4}})
	if err != nil {
		t.Fatal(err)
	}

	// Save / LoadProfile round trip, and the typed corruption error.
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)
	clone, err := LoadProfile(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	mangled := append([]byte(nil), saved...)
	mangled[len(mangled)/2] ^= 0x40
	if _, err := LoadProfile(bytes.NewReader(mangled)); !errors.Is(err, ErrCorruptProfile) {
		t.Fatalf("mangled profile: %v, want ErrCorruptProfile", err)
	}

	// A manual SwapProfile publishes generation 2 with zero downtime.
	rt := NewRuntime(prof, WithWorkers(1))
	defer rt.Close()

	s := rt.Session("app")
	for _, tr := range traces {
		if _, err := s.ObserveTrace(tr); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := rt.SwapProfile(clone)
	if err != nil || gen != 2 {
		t.Fatalf("SwapProfile = %d, %v, want 2, nil", gen, err)
	}
	if _, err := s.ObserveTrace(traces[0]); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Generation != 2 || st.Swaps != 1 {
		t.Fatalf("swap not visible in stats: %v", st)
	}

	// The registry persists generations and reloads them intact.
	reg, err := OpenProfileRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := reg.Publish("app", saved, "operator")
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := reg.LoadEntry("app", entry)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Program != prof.Program || reloaded.Threshold != prof.Threshold {
		t.Fatal("registry round trip diverged")
	}
}

// TestFacadeRegistryNumbersGenerations publishes one saved profile twice
// through the facade's store: the store numbers the generations itself, so
// the second publish is generation 2 in its own file rather than a second
// manifest entry over generation 1's file, and each generation loads
// against its own manifest checksum.
func TestFacadeRegistryNumbersGenerations(t *testing.T) {
	app := HospitalApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := Train(app.Prog, traces, TrainOptions{Train: HMMOptions{MaxIters: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reg, err := OpenProfileRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= 2; want++ {
		e, err := reg.Publish("apph", buf.Bytes(), "operator")
		if err != nil || e.Generation != want {
			t.Fatalf("publish %d: generation %d, %v", want, e.Generation, err)
		}
	}
	entries, err := reg.Entries("apph")
	if err != nil || len(entries) != 2 {
		t.Fatalf("manifest after two publishes: %+v, %v; want 2 entries", entries, err)
	}
	for i, e := range entries {
		if e.Generation != uint64(i+1) || e.File == entries[1-i].File {
			t.Fatalf("entry %d: %+v beside %+v; want generation %d in its own file", i, e, entries[1-i], i+1)
		}
		p, err := reg.LoadEntry("apph", e)
		if err != nil || p.Threshold != prof.Threshold {
			t.Fatalf("generation %d does not load against its checksum %s: %v", e.Generation, e.Checksum, err)
		}
	}
}

func TestFacadeBundledApps(t *testing.T) {
	names := map[string]*App{
		"apph": HospitalApp(),
		"appb": BankingApp(),
		"apps": SupermarketApp(),
	}
	for want, app := range names {
		if app.Name != want {
			t.Errorf("app name %q, want %q", app.Name, want)
		}
	}
	if len(SIRApps()) != 4 {
		t.Errorf("SIRApps = %d", len(SIRApps()))
	}
	if len(BankingAttacks()) != 5 {
		t.Errorf("BankingAttacks = %d", len(BankingAttacks()))
	}
	if !strings.Contains(TautologyPayload, "OR") {
		t.Errorf("TautologyPayload = %q", TautologyPayload)
	}
}

// TestFacadeObservabilitySurface covers the observability additions end to
// end through the public API: the decision-provenance ring, latency
// histograms, structured event logging, and the live introspection endpoint.
func TestFacadeObservabilitySurface(t *testing.T) {
	app := HospitalApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := Train(app.Prog, traces, TrainOptions{Train: HMMOptions{MaxIters: 4}})
	if err != nil {
		t.Fatal(err)
	}

	prof.Threshold = 0 // every window flags, so provenance must hold alerts

	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(syncWriter{&logMu, &logBuf}, nil))
	rt := NewRuntime(prof,
		WithWorkers(2),
		WithDecisionLog(256, 1),
		WithLogger(logger))
	s := rt.Session("obs-1")
	for _, c := range traces[0] {
		if err := s.Observe(c); err != nil {
			t.Fatal(err)
		}
	}
	alerts, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) == 0 {
		t.Fatal("threshold 0 raised no alerts; the provenance check is vacuous")
	}

	// Decision provenance: every alert is retained with its context.
	ds := rt.Decisions(0)
	var flagged int
	for _, d := range ds {
		if d.Flagged {
			flagged++
			if d.Session != "obs-1" || d.Generation == 0 || d.Flag == "Normal" {
				t.Errorf("alert decision incomplete: %+v", d)
			}
		}
	}
	if flagged != len(alerts) {
		t.Errorf("provenance holds %d alert decisions, want %d", flagged, len(alerts))
	}

	// Latency histograms mirror the counters.
	h := rt.Histograms()
	st := rt.Stats()
	if h.Observe.Count != st.Calls || h.Observe.Count == 0 {
		t.Errorf("observe histogram count %d vs calls %d", h.Observe.Count, st.Calls)
	}
	if st.P95Latency < st.P50Latency || st.MaxLatency < st.P99Latency {
		t.Errorf("percentiles inconsistent: %v", st)
	}

	// A profile swap emits a structured event through WithLogger.
	if _, err := rt.SwapProfile(prof); err != nil {
		t.Fatal(err)
	}
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logged, "profile swapped") {
		t.Errorf("swap event missing from the structured log: %q", logged)
	}

	// The introspection endpoint over the live runtime.
	srv := httptest.NewServer(NewIntrospectionHandler(rt))
	defer srv.Close()
	fetch := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	if code, body := fetch("/metrics"); code != 200 ||
		!strings.Contains(body, "adprom_calls_total") ||
		!strings.Contains(body, "adprom_observe_latency_seconds_bucket") {
		t.Errorf("/metrics = %d, body %.200s", code, body)
	}
	if code, body := fetch("/decisions?limit=5"); code != 200 {
		t.Errorf("/decisions = %d %s", code, body)
	} else {
		var got []Decision
		if err := json.Unmarshal([]byte(body), &got); err != nil || len(got) == 0 {
			t.Errorf("/decisions decode: %v (%d records)", err, len(got))
		}
	}
	if code, _ := fetch("/healthz"); code != 200 {
		t.Errorf("/healthz = %d", code)
	}
	if code, _ := fetch("/readyz"); code != 200 {
		t.Errorf("/readyz while serving = %d", code)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := fetch("/readyz"); code != 503 || !strings.Contains(body, "closed") {
		t.Errorf("/readyz after close = %d %q, want 503 with the cause", code, body)
	}
}

// syncWriter serialises the slog handler's writes against the test's reads.
type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
