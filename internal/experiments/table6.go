package experiments

import (
	"fmt"
	"time"

	"adprom/internal/collector"
	"adprom/internal/dataset"
	"adprom/internal/interp"
)

// CollectorTiming is one row of Table VI.
type CollectorTiming struct {
	Case      string
	Ltrace    time.Duration
	Collector time.Duration
	// Decrease is the overhead reduction (ltrace−collector)/ltrace.
	Decrease float64
}

// Table6 regenerates Table VI: the cost of AD-PROM's Calls Collector versus
// ltrace-style collection, on two print-heavy test cases and two query-heavy
// ones. Each timing is the wall time of the instrumented run, the fastest
// of several repetitions; the ltrace mode renders every argument and resolves callers
// through the simulated symbol table (see internal/collector).
func Table6(cfg Config) ([]CollectorTiming, *Report, error) {
	// Cases 1–2 are print-heavy (full inventory walk, interest report);
	// cases 3–4 execute several queries with little printing (transfer,
	// restock).
	apps := dataset.CAApps()
	appB, appS := apps[1], apps[2]
	cases := []struct {
		name string
		app  *dataset.App
		tc   dataset.TestCase
	}{
		{"1 (print-heavy inventory)", appS, dataset.TestCase{Name: "inv", Input: []string{"3"}}},
		{"2 (print-heavy interest)", appB, dataset.TestCase{Name: "int", Input: []string{"6"}}},
		{"3 (query transfer)", appB, dataset.TestCase{Name: "xfer", Input: []string{"4", "105", "106", "50"}}},
		{"4 (query restock)", appS, dataset.TestCase{Name: "rst", Input: []string{"6", "12", "40"}}},
	}

	reps := 30
	if cfg.Quick {
		reps = 8
	}

	rep := &Report{ID: "table6", Title: "Calls Collector vs ltrace (paper Table VI)"}
	rep.addf("%-28s %12s %12s %10s   %s", "test case", "ltrace", "collector", "decrease", "paper decrease")
	paper := []string{"97.30%", "94.19%", "61.63%", "60.04%"}

	var out []CollectorTiming
	for i, c := range cases {
		lt, err := timeCase(c.app, c.tc, collector.ModeLtrace, reps)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: table6 %s: %w", c.name, err)
		}
		ad, err := timeCase(c.app, c.tc, collector.ModeADPROM, reps)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: table6 %s: %w", c.name, err)
		}
		row := CollectorTiming{Case: c.name, Ltrace: lt, Collector: ad}
		if lt > 0 {
			row.Decrease = float64(lt-ad) / float64(lt)
		}
		out = append(out, row)
		rep.addf("%-28s %12v %12v %9.2f%%   %s", row.Case, row.Ltrace, row.Collector, 100*row.Decrease, paper[i])
	}
	var avg float64
	for _, r := range out {
		avg += r.Decrease
	}
	avg /= float64(len(out))
	rep.addf("average overhead decrease: %.2f%% (paper: 78.29%%)", 100*avg)
	return out, rep, nil
}

// timeCase measures the wall time of the instrumented run with the given
// collector mode: the fastest of reps repetitions, since a repetition can
// only be slowed, never sped up, by whatever else the machine runs. The
// database is seeded once and IO state reset between repetitions, so the
// measurement covers execution plus collection — what the paper's Table VI
// times — rather than test-harness setup.
func timeCase(app *dataset.App, tc dataset.TestCase, mode collector.Mode, reps int) (time.Duration, error) {
	world := interp.NewWorld(app.FreshDB())
	run := func() error {
		world.ResetIO()
		ip := interp.New(app.Prog, world, interp.Options{CaptureArgs: mode == collector.ModeLtrace})
		col := collector.New(mode, nil)
		ip.AddHook(col.Hook())
		_, err := ip.Run(tc.Input...)
		return err
	}
	if err := run(); err != nil { // warm-up
		return 0, err
	}
	var fastest time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < fastest {
			fastest = d
		}
	}
	return fastest, nil
}
