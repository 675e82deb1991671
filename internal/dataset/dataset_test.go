package dataset

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"adprom/internal/collector"
	"adprom/internal/interp"
	"adprom/internal/ir"
	"adprom/internal/minidb"
)

func TestCAAppsValidateAndRun(t *testing.T) {
	for _, app := range CAApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			if err := ir.Validate(app.Prog); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			traces, err := app.CollectTraces(collector.ModeADPROM)
			if err != nil {
				t.Fatalf("CollectTraces: %v", err)
			}
			if len(traces) != len(app.TestCases) {
				t.Fatalf("%d traces for %d cases", len(traces), len(app.TestCases))
			}
			empty := 0
			for _, tr := range traces {
				if len(tr) == 0 {
					empty++
				}
			}
			if empty > 0 {
				t.Errorf("%d empty traces", empty)
			}
		})
	}
}

func TestCADatasetScaleMatchesTableIII(t *testing.T) {
	// Table III: #test cases 63/73/36; #states (call sites) 59/139/229.
	// The hand-written reproductions match the case counts exactly and the
	// call-site counts in order of magnitude.
	wantCases := map[string]int{"apph": 63, "appb": 73, "apps": 36}
	for _, app := range CAApps() {
		if got := len(app.TestCases); got != wantCases[app.Name] {
			t.Errorf("%s: %d test cases, want %d", app.Name, got, wantCases[app.Name])
		}
		if n := app.NumStates(); n < 25 || n > 300 {
			t.Errorf("%s: %d call sites, outside the Table III magnitude", app.Name, n)
		}
	}
}

func TestCATracesContainLeakLabels(t *testing.T) {
	// Every CA app outputs TD somewhere, so its normal traces include _Q
	// labels — the property the DL flag depends on.
	for _, app := range CAApps() {
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		found := false
		for _, tr := range traces {
			for _, c := range tr {
				if strings.Contains(c.Label, "_Q") {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: no _Q labels in any trace", app.Name)
		}
	}
}

// seedFuncs maps each CA app to the function that seeds its database from
// SQL, the reference its template clones must match.
var seedFuncs = map[string]func() *minidb.Database{"apph": appHDB, "appb": appBDB, "apps": appSDB}

// dumpTables renders every row of every table of db, tables in name order.
func dumpTables(db *minidb.Database) []string {
	var out []string
	for _, name := range db.TableNames() {
		for _, row := range db.MustExec("SELECT * FROM " + name).Rows {
			out = append(out, name+": "+strings.Join(row, ","))
		}
	}
	return out
}

// caseRun is what one test case leaves behind: its trace, its output, and
// every row of its database afterwards.
type caseRun struct {
	trace  collector.Trace
	stdout string
	tables []string
}

func runCase(t *testing.T, app *App, tc TestCase) caseRun {
	t.Helper()
	var w *interp.World
	tr, err := app.RunCase(app.Prog, tc, collector.ModeADPROM, func(_ *interp.Interp, world *interp.World) { w = world })
	if err != nil {
		t.Fatalf("%s: case %s: %v", app.Name, tc.Name, err)
	}
	return caseRun{trace: tr, stdout: w.Stdout.String(), tables: dumpTables(w.DB)}
}

// TestTemplateCloneMatchesFreshSeed is the differential test of the seed
// templates. Every case of apph, appb and apps, run on a clone, leaves the
// same trace, output and database as on a database built from its seed SQL.
// A second collection equals the first, so the cases that write (admit,
// discharge, deposit, sell, …) leave the template as it was.
func TestTemplateCloneMatchesFreshSeed(t *testing.T) {
	for _, app := range CAApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			ref := *app
			ref.FreshDB = seedFuncs[app.Name]
			seed := dumpTables(ref.FreshDB())
			writes := 0
			for _, tc := range app.TestCases {
				got, want := runCase(t, app, tc), runCase(t, &ref, tc)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("case %s on a clone differs from a fresh seed:\n got %+v\nwant %+v", tc.Name, got, want)
				}
				if !reflect.DeepEqual(got.tables, seed) {
					writes++
				}
			}
			if writes == 0 {
				t.Errorf("no %s case writes to its database; the test shows nothing about the template", app.Name)
			}
			first, err := app.CollectTraces(collector.ModeADPROM)
			if err != nil {
				t.Fatal(err)
			}
			second, err := app.CollectTraces(collector.ModeADPROM)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Error("a second CollectTraces differs from the first")
			}
		})
	}
}

// TestTemplateClonesConcurrently collects apph's traces on several
// goroutines at once, each with its own App but all cloning the one
// template; every collection must equal a sequential one. Under -race it
// checks that the shared template is only read.
func TestTemplateClonesConcurrently(t *testing.T) {
	want, err := AppH().CollectTraces(collector.ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]collector.Trace, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		app := AppH()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = app.CollectTraces(collector.ModeADPROM)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("goroutine %d collected different traces", i)
		}
	}
}

// BenchmarkCollectTraces measures one trace collection of apph, appb and
// apps, the first step of each tenant's set-up. The seed templates are
// built before the timer starts, as a process builds them once.
func BenchmarkCollectTraces(b *testing.B) {
	apps := CAApps()
	for _, app := range apps {
		app.FreshDB()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, app := range apps {
			if _, err := app.CollectTraces(collector.ModeADPROM); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestAppBInjectionChangesTrace(t *testing.T) {
	app := AppB()
	normal, err := app.RunCase(app.Prog, TestCase{Name: "n", Input: []string{"1", "105"}}, collector.ModeADPROM, nil)
	if err != nil {
		t.Fatalf("normal: %v", err)
	}
	injected, err := app.RunCase(app.Prog, TestCase{Name: "inj", Input: []string{"1", "1' OR '1'='1"}}, collector.ModeADPROM, nil)
	if err != nil {
		t.Fatalf("injected: %v", err)
	}
	if len(injected) <= len(normal)+10 {
		t.Errorf("injection barely changed the trace: %d vs %d calls", len(injected), len(normal))
	}
}

func TestSIRAppsValidateAndScale(t *testing.T) {
	apps := SIRApps()
	if len(apps) != 4 {
		t.Fatalf("SIRApps = %d", len(apps))
	}
	for _, app := range apps {
		if err := ir.Validate(app.Prog); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
	}
	// App4 must cross the clustering threshold like bash (1366 states).
	if n := apps[3].NumStates(); n <= 900 {
		t.Errorf("app4 has %d call sites, need > 900 to engage clustering", n)
	}
	// The small ones must not.
	for _, app := range apps[:3] {
		if n := app.NumStates(); n > 900 {
			t.Errorf("%s has %d call sites, expected ≤ 900", app.Name, n)
		}
	}
}

func TestSIRTracesAreDiverse(t *testing.T) {
	app := App1()
	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		t.Fatalf("CollectTraces: %v", err)
	}
	distinct := map[string]bool{}
	for _, tr := range traces {
		distinct[strings.Join(tr.Labels(), ";")] = true
	}
	if len(distinct) < len(traces)/4 {
		t.Errorf("only %d distinct traces out of %d", len(distinct), len(traces))
	}
}

func TestFig3IsThePaperExample(t *testing.T) {
	p := Fig3()
	if err := ir.Validate(p); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(p.Functions) != 2 || p.Func("f") == nil || p.Func("main") == nil {
		t.Error("Fig3 shape wrong")
	}
	if len(p.Func("main").Blocks) != 7 || len(p.Func("f").Blocks) != 5 {
		t.Errorf("Fig3 block counts: main=%d f=%d",
			len(p.Func("main").Blocks), len(p.Func("f").Blocks))
	}
}
