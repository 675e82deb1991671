// Package core wires AD-PROM's components together as in the paper's
// Figure 4: the Analyzer (static analysis), the Calls Collector, the Profile
// Constructor (training phase), and the Detection Engine (detection phase),
// with alerts routed to a security-administrator sink.
package core

import (
	"context"
	"fmt"
	"time"

	"adprom/internal/cfg"
	"adprom/internal/collector"
	"adprom/internal/ctm"
	"adprom/internal/ddg"
	"adprom/internal/detect"
	"adprom/internal/interp"
	"adprom/internal/ir"
	"adprom/internal/profile"
)

// StaticAnalysis is the Analyzer's output: the data-dependency labels, the
// per-function CTMs, and the aggregated program matrix, with the elapsed
// time of each stage (the rows of Table VIII).
type StaticAnalysis struct {
	DDG      *ddg.Info
	Graphs   map[string]*cfg.Graph
	FuncCTMs map[string]*ctm.Matrix
	PCTM     *ctm.Matrix
	Timings  Timings
}

// Timings records the pre-training stages of Table VIII. BuildCFG covers CFG
// extraction (back edges, topological order, reachability) plus the DDG,
// ProbEst the per-function transition-probability estimation (eq. 3), and
// Aggregation the call-graph inlining into the pCTM (eqs. 4–10).
type Timings struct {
	BuildCFG    time.Duration
	ProbEst     time.Duration
	Aggregation time.Duration
}

// Analyze runs the full static phase over prog.
func Analyze(prog *ir.Program) (*StaticAnalysis, error) {
	if err := ir.Validate(prog); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sa := &StaticAnalysis{
		Graphs:   map[string]*cfg.Graph{},
		FuncCTMs: map[string]*ctm.Matrix{},
	}

	start := time.Now()
	sa.DDG = ddg.Analyze(prog)
	for _, name := range ir.FunctionNames(prog) {
		g, err := cfg.Analyze(prog.Functions[name])
		if err != nil {
			return nil, fmt.Errorf("core: cfg %s: %w", name, err)
		}
		sa.Graphs[name] = g
	}
	sa.Timings.BuildCFG = time.Since(start)

	start = time.Now()
	for _, name := range ir.FunctionNames(prog) {
		mx, err := ctm.BuildFunc(prog.Functions[name], sa.Graphs[name], sa.DDG)
		if err != nil {
			return nil, fmt.Errorf("core: ctm %s: %w", name, err)
		}
		sa.FuncCTMs[name] = mx
	}
	sa.Timings.ProbEst = time.Since(start)

	start = time.Now()
	pm, err := ctm.Aggregate(prog, sa.FuncCTMs)
	if err != nil {
		return nil, fmt.Errorf("core: aggregate: %w", err)
	}
	sa.PCTM = pm
	sa.Timings.Aggregation = time.Since(start)
	return sa, nil
}

// Train runs the full training phase (Figure 7): static analysis, then
// profile construction over the collected traces.
func Train(prog *ir.Program, traces []collector.Trace, opts profile.Options) (*profile.Profile, *StaticAnalysis, error) {
	return TrainContext(context.Background(), prog, traces, opts)
}

// TrainContext is Train with cancellation: a cancelled context aborts the
// Baum–Welch loop between iterations and surfaces ctx.Err() as the error.
func TrainContext(ctx context.Context, prog *ir.Program, traces []collector.Trace, opts profile.Options) (*profile.Profile, *StaticAnalysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	sa, err := Analyze(prog)
	if err != nil {
		return nil, nil, err
	}
	p, err := profile.BuildContext(ctx, prog, sa.PCTM, traces, opts)
	if err != nil {
		return nil, sa, fmt.Errorf("core: %w", err)
	}
	return p, sa, nil
}

// AlertSink receives detection-engine findings; the paper's Security Admin.
type AlertSink interface {
	HandleAlert(detect.Alert)
}

// AlertFunc adapts a function to AlertSink.
type AlertFunc func(detect.Alert)

// HandleAlert calls f.
func (f AlertFunc) HandleAlert(a detect.Alert) { f(a) }

// Monitor is the detection phase (Figure 8): it attaches to a running
// program, feeds its calls to the detection engine, and forwards alerts.
type Monitor struct {
	engine *detect.Engine
	sink   AlertSink
}

// NewMonitor builds a monitor around a trained profile. sink may be nil
// (alerts are still retained and available from Alerts).
func NewMonitor(p *profile.Profile, sink AlertSink) *Monitor {
	return &Monitor{engine: detect.NewEngine(p), sink: sink}
}

// Engine returns the monitor's detection engine (for threshold control).
func (m *Monitor) Engine() *detect.Engine { return m.engine }

// Attach hooks the monitor into an interpreter so that detection runs inline
// with execution, like the paper's dynamically instrumented deployment.
func (m *Monitor) Attach(ip *interp.Interp) {
	ip.AddHook(func(e *interp.Event) {
		m.ObserveBatch([]collector.Call{collector.CallOf(e)})
	})
}

// ObserveBatch feeds a run of consecutive calls from the monitored stream
// through the engine and returns (and sinks) the alerts raised. The alerts
// are exactly those len(calls) individual Observe calls would raise, in the
// same order; batching only amortises per-call overhead.
func (m *Monitor) ObserveBatch(calls []collector.Call) []detect.Alert {
	alerts := m.engine.ObserveBatch(calls)
	if m.sink != nil {
		for _, a := range alerts {
			m.sink.HandleAlert(a)
		}
	}
	return alerts
}

// ObserveTrace replays one collected execution through the monitor (the
// offline deployment mode) and returns the engine's full alert history
// including the final short-window judgement. The sliding window resets at
// the start of the trace: windows never straddle two executions.
func (m *Monitor) ObserveTrace(tr collector.Trace) []detect.Alert {
	m.engine.ResetWindow()
	alerts := m.engine.ObserveBatch(tr)
	if m.sink != nil {
		for _, a := range alerts {
			m.sink.HandleAlert(a)
		}
	}
	before := len(m.engine.Alerts())
	history := m.engine.Flush()
	if m.sink != nil {
		for _, a := range history[before:] {
			m.sink.HandleAlert(a)
		}
	}
	return history
}

// Alerts returns everything the engine has raised.
func (m *Monitor) Alerts() []detect.Alert { return m.engine.Alerts() }
