package dataset

import (
	"context"
	"fmt"
	"sync"

	"adprom/internal/collector"
	"adprom/internal/interp"
	"adprom/internal/ir"
	"adprom/internal/minidb"
)

// TestCase is one input vector for a dataset program (the tokens its
// scanf/gets calls consume).
type TestCase struct {
	Name  string
	Input []string
}

// App bundles a dataset program with its database seeder and test-case
// corpus.
type App struct {
	// Name is the short identifier used in experiment output (apph, appb,
	// apps, app1..app4).
	Name string
	// DBMS records which client dialect the program uses (presentation
	// only; the engine underneath is minidb either way).
	DBMS string
	// Prog is the application program.
	Prog *ir.Program
	// FreshDB returns a newly seeded database; nil for non-DB programs.
	FreshDB func() *minidb.Database
	// TestCases drives trace collection.
	TestCases []TestCase
}

// NumStates returns the number of library-call sites — the paper's "#states"
// statistic in Tables III/IV before any clustering.
func (a *App) NumStates() int { return len(ir.ProgramCallSites(a.Prog)) }

// CollectTraces runs every test case and returns one trace per case. Each
// case runs against a fresh database and world, so traces are independent
// and deterministic. The mode selects the collector strategy (AD-PROM for
// everything except the Table VI overhead comparison).
func (a *App) CollectTraces(mode collector.Mode) ([]collector.Trace, error) {
	return a.CollectTracesFrom(a.Prog, mode)
}

// CollectTracesContext is CollectTraces with cancellation: the context is
// checked before every test case, and a cancelled collection returns
// ctx.Err() (wrapped).
func (a *App) CollectTracesContext(ctx context.Context, mode collector.Mode) ([]collector.Trace, error) {
	return a.collectTracesFrom(ctx, a.Prog, mode)
}

// CollectTracesFrom runs the app's test cases against prog — typically a
// mutated copy produced by the attack framework — with the app's databases
// and inputs.
func (a *App) CollectTracesFrom(prog *ir.Program, mode collector.Mode) ([]collector.Trace, error) {
	return a.collectTracesFrom(context.Background(), prog, mode)
}

func (a *App) collectTracesFrom(ctx context.Context, prog *ir.Program, mode collector.Mode) ([]collector.Trace, error) {
	traces := make([]collector.Trace, 0, len(a.TestCases))
	for _, tc := range a.TestCases {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dataset %s: collection cancelled after %d cases: %w", a.Name, len(traces), err)
		}
		tr, err := a.RunCase(prog, tc, mode, nil)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: case %s: %w", a.Name, tc.Name, err)
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// RunCase executes one test case of prog and returns its trace. extra, when
// non-nil, is invoked on the interpreter before the run (the MITM attack
// installs its query rewriter this way via the world).
func (a *App) RunCase(prog *ir.Program, tc TestCase, mode collector.Mode, setup func(*interp.Interp, *interp.World)) (collector.Trace, error) {
	var db *minidb.Database
	if a.FreshDB != nil {
		db = a.FreshDB()
	}
	world := interp.NewWorld(db)
	opts := interp.Options{CaptureArgs: mode == collector.ModeLtrace}
	ip := interp.New(prog, world, opts)
	col := collector.New(mode, nil)
	ip.AddHook(col.Hook())
	if setup != nil {
		setup(ip, world)
	}
	if _, err := ip.Run(tc.Input...); err != nil {
		return nil, err
	}
	return col.Trace(), nil
}

// templateClones returns a FreshDB that runs build once per process, on
// first use, and hands every caller a deep copy of that template: a
// collection then parses its seed SQL once instead of once per test case.
func templateClones(build func() *minidb.Database) func() *minidb.Database {
	template := sync.OnceValue(build)
	return func() *minidb.Database { return template().Clone() }
}

// CAApps returns the three CA-dataset client applications of Table III.
func CAApps() []*App {
	return []*App{AppH(), AppB(), AppS()}
}
