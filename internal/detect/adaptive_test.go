package detect

import (
	"testing"

	"adprom/internal/collector"
)

func TestMarkFalsePositiveLowersThreshold(t *testing.T) {
	p, traces, _ := trainAppH(t)
	e := NewEngine(p)
	// Tune the threshold aggressively so a legitimate trace flags.
	e.SetThreshold(0)
	var fp *Alert
	for _, c := range traces[5] {
		for _, a := range e.Observe(c) {
			if a.Flag == FlagAnomalous || a.Flag == FlagDL {
				cp := a
				fp = &cp
			}
		}
	}
	for _, a := range e.Flush() {
		if a.Flag == FlagAnomalous || a.Flag == FlagDL {
			cp := a
			fp = &cp
		}
	}
	if fp == nil {
		t.Fatal("aggressive threshold raised nothing")
	}

	e.MarkFalsePositive(*fp, 0)
	if e.Threshold() >= fp.Score {
		t.Fatalf("threshold %v not below FP score %v", e.Threshold(), fp.Score)
	}
	// The same behaviour no longer alerts.
	e2 := NewEngine(p)
	e2.SetThreshold(e.Threshold())
	count := 0
	for _, c := range traces[5] {
		count += len(e2.Observe(c))
	}
	probAlerts := 0
	for _, a := range e2.Flush() {
		if a.Flag == FlagAnomalous || a.Flag == FlagDL {
			probAlerts++
		}
	}
	if probAlerts != 0 {
		t.Errorf("behaviour still alerts after FP feedback: %d", probAlerts)
	}
	_ = count
}

func TestMarkFalsePositiveWhitelistsOOC(t *testing.T) {
	p, _, _ := trainAppH(t)
	e := NewEngine(p)
	call := collector.Call{Label: "PQexec", Name: "PQexec", Caller: "menu"}
	alerts := e.Observe(call)
	if len(alerts) != 1 || alerts[0].Flag != FlagOutOfContext {
		t.Fatalf("expected OOC alert, got %+v", alerts)
	}
	e.MarkFalsePositive(alerts[0], 0)
	if again := e.Observe(call); len(again) != 0 {
		t.Errorf("whitelisted pair still alerts: %+v", again)
	}
	// Other unexpected pairs still alert.
	if other := e.Observe(collector.Call{Label: "PQexec", Name: "PQexec", Caller: "ghostFn"}); len(other) == 0 {
		t.Error("unrelated OOC suppressed")
	}
}

func TestAutoAdaptRelaxesThreshold(t *testing.T) {
	p, traces, _ := trainAppH(t)
	e := NewEngine(p)
	// Start with a threshold that sits just below normal scores, then let
	// auto-adaptation pull it further down as near-threshold normals stream.
	start := p.Threshold + 0.04 // tighten a little
	e.SetThreshold(start)
	e.EnableAutoAdapt(0.5, 1.0)
	for _, tr := range traces {
		e.ResetWindow()
		for _, c := range tr {
			e.Observe(c)
		}
		e.Flush() // short traces are judged (and adapted on) here
	}
	if e.Threshold() >= start {
		t.Errorf("auto-adapt did not relax threshold: %v -> %v", start, e.Threshold())
	}
	// Clamping: absurd rates are normalised.
	e2 := NewEngine(p)
	e2.EnableAutoAdapt(99, -1)
	if e2.adaptRate != 1 || e2.adaptMargin <= 0 {
		t.Errorf("rate/margin not clamped: %v %v", e2.adaptRate, e2.adaptMargin)
	}
}
