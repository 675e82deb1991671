package detect

import (
	"sync"
	"testing"

	"adprom/internal/collector"
	"adprom/internal/ctm"
	"adprom/internal/dataset"
	"adprom/internal/ddg"
	"adprom/internal/hmm"
	"adprom/internal/profile"
)

var appHOnce struct {
	sync.Once
	p      *profile.Profile
	traces []collector.Trace
	app    *dataset.App
	err    error
}

// trainAppH builds the full pipeline once and caches it: the profile is only
// read by the engines under test.
func trainAppH(t *testing.T) (*profile.Profile, []collector.Trace, *dataset.App) {
	t.Helper()
	appHOnce.Do(func() {
		appHOnce.p, appHOnce.traces, appHOnce.app, appHOnce.err = trainAppHUncached()
	})
	if appHOnce.err != nil {
		t.Fatal(appHOnce.err)
	}
	return appHOnce.p, appHOnce.traces, appHOnce.app
}

func trainAppHUncached() (*profile.Profile, []collector.Trace, *dataset.App, error) {
	app := dataset.AppH()
	info := ddg.Analyze(app.Prog)
	funcs, err := ctm.BuildAll(app.Prog, info)
	if err != nil {
		return nil, nil, nil, err
	}
	pm, err := ctm.Aggregate(app.Prog, funcs)
	if err != nil {
		return nil, nil, nil, err
	}
	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := profile.Build(app.Prog, pm, traces, profile.Options{Train: hmm.TrainOptions{MaxIters: 8}})
	if err != nil {
		return nil, nil, nil, err
	}
	return p, traces, app, nil
}

func TestNormalTracesRaiseNoAlerts(t *testing.T) {
	p, traces, _ := trainAppH(t)
	for _, tr := range traces {
		e := NewEngine(p)
		for _, c := range tr {
			for _, a := range e.Observe(c) {
				t.Fatalf("normal trace raised %v (score %v < %v, window %v)",
					a.Flag, a.Score, a.Threshold, a.Window)
			}
		}
		e.Flush()
	}
}

func TestForeignCallsRaiseAnomalous(t *testing.T) {
	p, traces, _ := trainAppH(t)
	// Splice a burst of foreign calls into a normal trace (A-S2 style).
	base := traces[0]
	mutated := append(collector.Trace{}, base...)
	for i := 0; i < 6; i++ {
		mutated = append(mutated, collector.Call{
			Label: "curl_easy_perform", Name: "curl_easy_perform", Caller: "main",
		})
	}
	e := NewEngine(p)
	var flags []Flag
	for _, c := range mutated {
		for _, a := range e.Observe(c) {
			flags = append(flags, a.Flag)
		}
	}
	if len(flags) == 0 {
		t.Fatal("foreign burst raised nothing")
	}
	anomalous := 0
	for _, f := range flags {
		if f == FlagAnomalous || f == FlagDL {
			anomalous++
		}
	}
	if anomalous == 0 {
		t.Errorf("flags = %v, want probability alerts", flags)
	}
}

func TestOutOfContextFlag(t *testing.T) {
	p, traces, _ := trainAppH(t)
	e := NewEngine(p)
	// PQexec is known, but never from function "menu".
	alerts := e.Observe(collector.Call{Label: "PQexec", Name: "PQexec", Caller: "menu"})
	found := false
	for _, a := range alerts {
		if a.Flag == FlagOutOfContext && a.Label == "PQexec" && a.Caller == "menu" {
			found = true
		}
	}
	if !found {
		t.Errorf("alerts = %+v, want OutOfContext", alerts)
	}
	// The same call from its legitimate caller is quiet.
	e2 := NewEngine(p)
	for _, c := range traces[0] {
		if a := e2.Observe(c); len(a) != 0 {
			t.Fatalf("legit call raised %+v", a)
		}
	}
}

func TestDLFlagCarriesOrigins(t *testing.T) {
	p, traces, app := trainAppH(t)
	_ = app
	// A window that is anomalous AND contains a _Q call must raise DL with
	// the query origin attached. Construct one: take a normal window that
	// contains a leak label, then corrupt its other calls.
	var leakWindow collector.Trace
	for _, tr := range traces {
		for _, w := range tr.Windows(p.WindowLen) {
			for _, c := range w {
				if len(c.Origins) > 0 {
					leakWindow = append(collector.Trace{}, w...)
				}
			}
			if leakWindow != nil {
				break
			}
		}
		if leakWindow != nil {
			break
		}
	}
	if leakWindow == nil {
		t.Fatal("no leak window in normal traces")
	}
	for i := 0; i < len(leakWindow); i++ {
		if len(leakWindow[i].Origins) == 0 {
			leakWindow[i] = collector.Call{Label: "alien", Name: "alien", Caller: "main"}
		}
	}
	e := NewEngine(p)
	var dl *Alert
	for _, c := range leakWindow {
		for _, a := range e.Observe(c) {
			if a.Flag == FlagDL {
				cp := a
				dl = &cp
			}
		}
	}
	for _, a := range e.Flush() {
		if a.Flag == FlagDL {
			cp := a
			dl = &cp
		}
	}
	if dl == nil {
		t.Fatal("no DL alert raised")
	}
	if len(dl.Origins) == 0 {
		t.Errorf("DL alert has no origins: %+v", dl)
	}
}

func TestThresholdOverride(t *testing.T) {
	p, traces, _ := trainAppH(t)
	e := NewEngine(p)
	e.SetThreshold(0) // per-symbol log-prob is always < 0 ⇒ everything flags
	if e.Threshold() != 0 {
		t.Fatal("SetThreshold ignored")
	}
	count := 0
	for _, c := range traces[0] {
		count += len(e.Observe(c))
	}
	// The first trace may be shorter than the window; Flush judges it.
	for _, a := range e.Flush() {
		if a.Flag == FlagAnomalous || a.Flag == FlagDL {
			count++
		}
	}
	if count == 0 {
		t.Error("threshold 0 raised nothing")
	}
}

func TestShortTraceFlushJudgesOnce(t *testing.T) {
	p, _, _ := trainAppH(t)
	e := NewEngine(p)
	e.SetThreshold(0)
	e.Observe(collector.Call{Label: "alien", Name: "alien", Caller: "main"})
	e.Observe(collector.Call{Label: "alien", Name: "alien", Caller: "main"})
	alerts := e.Flush()
	probAlerts := 0
	for _, a := range alerts {
		if a.Flag == FlagAnomalous || a.Flag == FlagDL {
			probAlerts++
		}
	}
	if probAlerts != 1 {
		t.Errorf("short trace raised %d probability alerts, want 1 (from Flush)", probAlerts)
	}
}

func TestFlagString(t *testing.T) {
	cases := map[Flag]string{
		FlagNormal:       "Normal",
		FlagAnomalous:    "Anomalous",
		FlagDL:           "DL",
		FlagOutOfContext: "OutOfContext",
		Flag(9):          "Flag(9)",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(f), got, want)
		}
	}
}

// TestSensitiveTouchCounting exercises the sensitive-touch counter that the
// shedding tier reads for per-session risk: profile leak labels and
// administrator-installed sensitive labels both count, the counter survives
// Reset via Adopt, and Reset clears both the counter and the label set.
func TestSensitiveTouchCounting(t *testing.T) {
	p, traces, _ := trainAppH(t)
	e := NewEngine(p)

	var leak, plain string
	for l := range p.LeakLabels {
		leak = l
		break
	}
	for _, s := range p.Symbols {
		if !p.LeakLabels[s] {
			plain = s
			break
		}
	}
	if leak == "" || plain == "" {
		t.Fatalf("profile needs both a leak label and a plain label (leak=%q plain=%q)", leak, plain)
	}

	e.Observe(collector.Call{Label: plain})
	if got := e.SensitiveTouches(); got != 0 {
		t.Fatalf("plain label counted as sensitive: touches = %d", got)
	}
	e.Observe(collector.Call{Label: leak})
	if got := e.SensitiveTouches(); got != 1 {
		t.Fatalf("leak label touches = %d, want 1", got)
	}

	e.SetSensitiveLabels(map[string]bool{plain: true})
	e.Observe(collector.Call{Label: plain})
	if got := e.SensitiveTouches(); got != 2 {
		t.Fatalf("administrator label touches = %d, want 2", got)
	}

	// Adopt carries the counter across an engine swap (profile hot-swap).
	next := NewEngine(p)
	next.Adopt(e)
	if got := next.SensitiveTouches(); got != 2 {
		t.Fatalf("Adopt lost the sensitive counter: touches = %d, want 2", got)
	}
	// ...but not the owner-installed label set.
	next.Observe(collector.Call{Label: plain})
	if got := next.SensitiveTouches(); got != 2 {
		t.Fatalf("Adopt must not carry sensitive labels: touches = %d, want 2", got)
	}

	e.Reset()
	if got := e.SensitiveTouches(); got != 0 {
		t.Fatalf("Reset kept sensitive touches: %d", got)
	}
	e.Observe(collector.Call{Label: plain})
	if got := e.SensitiveTouches(); got != 0 {
		t.Fatalf("Reset kept sensitive labels: touches = %d", got)
	}

	// The traces the profile was trained on necessarily touch leak labels;
	// a replayed normal stream must therefore accumulate touches.
	fresh := NewEngine(p)
	for _, c := range traces[0] {
		fresh.Observe(c)
	}
	if fresh.SensitiveTouches() == 0 {
		t.Fatal("replaying a training trace accumulated zero sensitive touches")
	}
}
