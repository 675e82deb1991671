package detect

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/ctm"
	"adprom/internal/dataset"
	"adprom/internal/ddg"
	"adprom/internal/hmm"
	"adprom/internal/profile"
	"adprom/internal/sqlchan"
)

func TestFusionConfigDefaults(t *testing.T) {
	got := FusionConfig{}.withDefaults()
	want := FusionConfig{
		HMMWeight:       DefaultChannelWeight,
		SQLWeight:       DefaultChannelWeight,
		EscalationSlack: DefaultEscalationSlack,
	}
	if got != want {
		t.Errorf("withDefaults() = %+v, want %+v", got, want)
	}
	clamped := FusionConfig{HMMWeight: -1, SQLWeight: -2, EscalationSlack: -1}.withDefaults()
	if clamped.HMMWeight != 0 || clamped.SQLWeight != 0 {
		t.Errorf("negative weights not clamped: %+v", clamped)
	}
	if clamped.EscalationSlack >= 0 {
		t.Errorf("negative slack must survive as the escalation-off switch: %+v", clamped)
	}
}

func TestChannelIndexRoundTrip(t *testing.T) {
	for i, name := range ChannelNames {
		if got := ChannelIndex(name); got != i {
			t.Errorf("ChannelIndex(%q) = %d, want %d", name, got, i)
		}
	}
	if got := ChannelIndex("carrier-pigeon"); got != -1 {
		t.Errorf("unknown channel = %d, want -1", got)
	}
}

// Fusion must be monotone: improving either channel's anomaly margin never
// decreases the fused margin, and never turns an escalating state
// non-escalating.
func TestFusionMonotone(t *testing.T) {
	cfg := FusionConfig{}.withDefaults()
	margins := []float64{-3, -0.2, -0.051, -0.05, 0, 0.04, 1, 7}
	for _, h := range margins {
		for _, s := range margins {
			base := cfg.Fuse(h, s)
			for _, d := range []float64{0.01, 0.5, 4} {
				if up := cfg.Fuse(h+d, s); up < base {
					t.Fatalf("Fuse(%v+%v, %v) = %v < %v", h, d, s, up, base)
				}
				if up := cfg.Fuse(h, s+d); up < base {
					t.Fatalf("Fuse(%v, %v+%v) = %v < %v", h, s, d, up, base)
				}
				if cfg.Escalates(base) && !cfg.Escalates(base+d) {
					t.Fatalf("escalation lost as fused margin rose from %v", base)
				}
			}
		}
	}
}

func TestEscalationSlackSemantics(t *testing.T) {
	cfg := FusionConfig{}.withDefaults()
	if cfg.Escalates(-cfg.EscalationSlack) {
		t.Error("fused margin exactly at -slack must not escalate")
	}
	if !cfg.Escalates(-cfg.EscalationSlack + 1e-9) {
		t.Error("fused margin just above -slack must escalate")
	}
	off := FusionConfig{EscalationSlack: -1}.withDefaults()
	for _, f := range []float64{-1, 0, 0.5, math.Inf(1)} {
		if off.Escalates(f) {
			t.Errorf("negative slack must disable escalation, fired at %v", f)
		}
	}
}

var appBOnce struct {
	sync.Once
	p      *profile.Profile
	sqlP   *sqlchan.Profile
	traces []collector.Trace
	app    *dataset.App
	err    error
}

// trainAppB builds the banking app's HMM and SQL profiles once; fusion tests
// need an app whose traces carry executed queries.
func trainAppB(t *testing.T) (*profile.Profile, *sqlchan.Profile, []collector.Trace, *dataset.App) {
	t.Helper()
	appBOnce.Do(func() {
		app := dataset.AppB()
		info := ddg.Analyze(app.Prog)
		funcs, err := ctm.BuildAll(app.Prog, info)
		if err != nil {
			appBOnce.err = err
			return
		}
		pm, err := ctm.Aggregate(app.Prog, funcs)
		if err != nil {
			appBOnce.err = err
			return
		}
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			appBOnce.err = err
			return
		}
		p, err := profile.Build(app.Prog, pm, traces, profile.Options{Train: hmm.TrainOptions{MaxIters: 8}})
		if err != nil {
			appBOnce.err = err
			return
		}
		sqlP, err := sqlchan.Train(traces, sqlchan.Options{SensitiveColumns: []string{"name", "balance"}})
		if err != nil {
			appBOnce.err = err
			return
		}
		appBOnce.p, appBOnce.sqlP, appBOnce.traces, appBOnce.app = p, sqlP, traces, app
	})
	if appBOnce.err != nil {
		t.Fatal(appBOnce.err)
	}
	return appBOnce.p, appBOnce.sqlP, appBOnce.traces, appBOnce.app
}

// adversarialTraces collects runs of the HMM-evading attacks so fusion tests
// exercise SQL-flagged windows, alongside the clean suite.
func adversarialTraces(t *testing.T, app *dataset.App) []collector.Trace {
	t.Helper()
	var out []collector.Trace
	for _, atk := range attack.SQLChannelAttacks() {
		prog, err := atk.Apply(app.Prog)
		if err != nil {
			t.Fatal(err)
		}
		cases := atk.Cases
		if cases == nil {
			cases = app.TestCases
		}
		for _, tc := range cases {
			tr, err := app.RunCase(prog, tc, collector.ModeADPROM, atk.Setup)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tr)
		}
	}
	return out
}

// replay feeds traces through e (window reset per trace, batch observe)
// and flushes once at the end, returning every alert the replay raised.
func replay(e *Engine, traces []collector.Trace) []Alert {
	for _, tr := range traces {
		e.ResetWindow()
		e.ObserveBatch(tr)
	}
	return e.Flush()
}

// With no SQL channel installed the engine must ignore SQL and Rows entirely:
// the alert history over query-bearing traces is bit-identical to the same
// traces with those fields stripped, and no alert carries channel provenance.
func TestDisabledSQLChannelBitIdentical(t *testing.T) {
	p, _, traces, app := trainAppB(t)
	all := append(append([]collector.Trace{}, traces...), adversarialTraces(t, app)...)

	stripped := make([]collector.Trace, len(all))
	for i, tr := range all {
		s := make(collector.Trace, len(tr))
		copy(s, tr)
		for j := range s {
			s[j].SQL = ""
			s[j].Rows = 0
		}
		stripped[i] = s
	}

	withSQL := replay(NewEngine(p), all)
	withoutSQL := replay(NewEngine(p), stripped)
	if !reflect.DeepEqual(withSQL, withoutSQL) {
		t.Fatalf("SQL fields leaked into a single-channel engine:\nwith:    %+v\nwithout: %+v",
			withSQL, withoutSQL)
	}
	for _, a := range withSQL {
		if len(a.Channels) != 0 || a.SQLScore != 0 || a.SQLThreshold != 0 || a.FusedScore != 0 {
			t.Fatalf("single-channel alert carries fusion provenance: %+v", a)
		}
	}
}

// Every fused-engine alert that crossed a threshold must name exactly the
// channels that crossed, and the stamped per-channel scores must agree with
// the named provenance.
func TestFusedAlertProvenance(t *testing.T) {
	p, sqlP, traces, app := trainAppB(t)
	e := NewEngine(p)
	e.SetSQLChannel(sqlchan.NewScorer(sqlP), FusionConfig{})
	alerts := replay(e, append(append([]collector.Trace{}, traces...), adversarialTraces(t, app)...))
	if len(alerts) == 0 {
		t.Fatal("adversarial traces raised no alerts")
	}
	sawSQL := false
	for _, a := range alerts {
		if a.Flag == FlagOutOfContext {
			continue // OOC is structural, judged outside the scoring channels
		}
		if len(a.Channels) == 0 {
			t.Fatalf("scored alert names no channel: %+v", a)
		}
		for _, ch := range a.Channels {
			switch ch {
			case ChannelHMM:
				if a.Score >= a.Threshold {
					t.Errorf("alert names hmm but score %.4f >= threshold %.4f", a.Score, a.Threshold)
				}
			case ChannelSQL:
				sawSQL = true
				if a.SQLScore >= a.SQLThreshold {
					t.Errorf("alert names sql but score %.4f >= threshold %.4f", a.SQLScore, a.SQLThreshold)
				}
			case ChannelFused:
				// Escalation: fused margin above the slack; both sub-scores
				// are stamped for the analyst.
			default:
				t.Errorf("unknown channel %q in %+v", ch, a)
			}
		}
		if len(a.Window) == 0 {
			t.Errorf("alert carries no window: %+v", a)
		}
	}
	if !sawSQL {
		t.Error("no alert named the SQL channel over HMM-evading attacks")
	}
}

// The clean suite through the fused engine must stay silent: adding the
// second channel cannot cost false positives on training-distribution
// behaviour.
func TestFusedEngineNoFalsePositives(t *testing.T) {
	p, sqlP, traces, _ := trainAppB(t)
	e := NewEngine(p)
	e.SetSQLChannel(sqlchan.NewScorer(sqlP), FusionConfig{})
	if alerts := replay(e, traces); len(alerts) != 0 {
		t.Fatalf("clean traces raised %d alerts through the fused engine: %+v", len(alerts), alerts)
	}
}

// An SQL-channel alert carries the HMM's latest window judgement as its
// Score and Threshold, bit for bit, so its HMM margin is the one the fused
// judge used: Threshold−Score equals the judgement's Judgement.HMMMargin.
// Before the HMM judges a window of the run, both stay zero.
func TestSQLAlertCarriesHMMJudgement(t *testing.T) {
	p, sqlP, _, app := trainAppB(t)
	e := NewEngine(p)
	e.SetSQLChannel(sqlchan.NewScorer(sqlP), FusionConfig{})
	var hmmScore float64
	hmmSeen := false
	sqlEvents := map[int]Judgement{}
	e.SetJudgeHook(func(j Judgement) {
		switch j.Channel {
		case ChannelHMM:
			hmmScore, hmmSeen = j.Score, true
		case ChannelSQL:
			if j.Flagged {
				sqlEvents[j.Seq] = j
			}
		}
	})
	checked := 0
	check := func(alerts []Alert) {
		for _, a := range alerts {
			if !slices.Contains(a.Channels, ChannelSQL) || slices.Contains(a.Channels, ChannelHMM) {
				continue
			}
			if !hmmSeen {
				if a.Score != 0 || a.Threshold != 0 {
					t.Fatalf("SQL alert before any HMM window carries an HMM judgement: %+v", a)
				}
				continue
			}
			if math.Float64bits(a.Score) != math.Float64bits(hmmScore) ||
				math.Float64bits(a.Threshold) != math.Float64bits(e.Threshold()) {
				t.Fatalf("SQL alert carries score %v threshold %v, the HMM last judged %v against %v",
					a.Score, a.Threshold, hmmScore, e.Threshold())
			}
			ev, ok := sqlEvents[a.Seq]
			if !ok || !ev.HMMSeen {
				t.Fatalf("no fused SQL judgement with an HMM margin traced for %+v", a)
			}
			if m := a.Threshold - a.Score; math.Float64bits(m) != math.Float64bits(ev.HMMMargin) {
				t.Fatalf("SQL alert's HMM margin %v, the fusion judged %v", m, ev.HMMMargin)
			}
			checked++
		}
	}
	for _, tr := range adversarialTraces(t, app) {
		e.ResetWindow()
		hmmSeen = false
		// Call by call, so the HMM's latest judgement is known at each alert.
		for _, c := range tr {
			check(e.Observe(c))
		}
		pending := len(e.Alerts())
		check(e.Flush()[pending:])
	}
	if checked == 0 {
		t.Fatal("no SQL-only alert followed an HMM window; the check is vacuous")
	}
}
