// Command adprom drives the AD-PROM reproduction from the command line:
// static analysis, profile training, attack detection demos, the detection
// daemon, and the paper's full experiment suite.
//
// Usage:
//
//	adprom analyze    -app <name>
//	adprom train      -app <name> -out <profile.gob>
//	adprom detect     -app <name> [-profile <profile.gob>] [-attack <1..5|mitm>]
//	adprom serve      -app <name> [-profile <file> | -tenant-dir <dir>] [-streams <n>] [-repeat <n>] [-batch <n>] [-ingest-codec auto|ndjson|binary] [shard and daemon flags]
//	adprom serve      -tenants <a,b,...> -ingest-addr <addr> [-ingest-codec auto|ndjson|binary] [-tenant-dir <dir>] [-tenant-quota <n>] [shard and daemon flags]
//	adprom explain    [-http <addr>] [-tenant <id>] [-log <decisions.json>] <alert-seq|trace-id>
//	adprom profile    inspect <file>...
//	adprom profile    publish -tenant-dir <dir> -tenant <id> <file>
//	adprom experiment <table3|table4|table5|table6|table7|table8|fig10|clustering|ablation|corpus|all> [-full]
//
// Shard flags: -workers, -queue, -shed, -scorer exact|topk:<k>,
// -sql-channel (and its -sql-*/-fusion-* tuning), -trace, -trace-sample.
// Daemon flags: -http, -watch-interval, -log, -log-format.
//
// App names: apph, appb, apps (CA-dataset), app1..app4 (SIR-style).
//
// serve is one daemon: a fleet of per-tenant profile shards fed over TCP.
// With -ingest-addr it accepts collector events for the -tenants apps (and
// any lineage under -tenant-dir) in NDJSON or binary frames until
// SIGINT/SIGTERM. Without it, serve runs a one-tenant fleet for -app on a
// loopback listener and feeds it through the built-in replay client: one
// connection and session per stream, -batch calls per observe event (one
// per event at -batch 0), binary frames unless -ingest-codec ndjson, and a
// flush after each trace. Every replay therefore crosses the real wire
// path: codec, ingest server, tenant routing, runtime.
//
// Full shard queues apply backpressure by default. With -shed, each shard
// runs the risk-aware admission controller instead: sessions with recent
// alerts, drifting scores, or sensitive-table touches are always scored,
// while low-risk streams are thinned probabilistically (and
// deterministically) as queues fill; the replay ends with a shed summary
// (shed rate, estimated miss probability, queue high water).
//
// With -tenant-dir, each tenant serves the newest generation its lineage's
// manifest lists (a named tenant with none is trained and published first),
// and every -watch-interval resident tenants are hot-swapped onto
// generations added with `adprom profile publish`; files the manifest does
// not list are never served.
//
// With -http, serve exposes the live introspection endpoint on the given
// address — /metrics (every runtime family with a tenant label, plus the
// router's and the ingest server's), /tenants, /decisions and /traces
// (?tenant= may be omitted on a one-tenant fleet), /traces/{id}, /healthz,
// /readyz, and /debug/pprof/ — and the replay lingers after its summary
// until SIGINT/SIGTERM so operators and scrapers can inspect the running
// server. -log mirrors alerts and the structured events (worker restarts,
// quarantines, profile swaps, tenant loads) to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/experiments"
	"adprom/internal/hmm"
	"adprom/internal/interp"
	"adprom/internal/profile"
	"adprom/internal/tenant"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "experiment":
		err = cmdExperiment(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adprom:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  adprom analyze    -app <name>
  adprom train      -app <name> -out <profile.gob>
  adprom detect     -app <name> [-profile <file>] [-attack <1..5|mitm>]
  adprom serve      -app <name> [-profile <file> | -tenant-dir <dir>] [-streams <n>] [-repeat <n>] [-batch <n>] [-ingest-codec auto|ndjson|binary] [shard and daemon flags]
  adprom serve      -tenants <a,b,...> -ingest-addr <addr> [-ingest-codec auto|ndjson|binary] [-tenant-dir <dir>] [-tenant-quota <n>] [-tenant-max-active <n>] [shard and daemon flags]
  adprom explain    [-http <addr>] [-tenant <id>] [-log <decisions.json>] <alert-seq|trace-id>
  adprom profile    inspect <file>...
  adprom profile    publish -tenant-dir <dir> -tenant <id> <file>
  adprom experiment <table3|table4|table5|table6|table7|table8|fig10|clustering|ablation|corpus|all> [-full]

shard flags: [-workers <n>] [-queue <n>] [-shed] [-scorer exact|topk:<k>] [-sql-channel] [-trace <n>] [-trace-sample <n>]
daemon flags: [-http <addr>] [-watch-interval <d>] [-log] [-log-format text|json]

apps: apph, appb, apps (CA-dataset), app1, app2, app3, app4 (SIR-style)
serve: one daemon — a fleet of per-tenant profile shards fed over TCP. With
-ingest-addr it serves remote collectors (NDJSON or binary frames) for the
-tenants apps until SIGINT/SIGTERM; -tenant-quota caps sessions per tenant.
Without -ingest-addr it serves -app as a one-tenant fleet on a loopback port
and replays the app's traces into it: one connection per -streams session,
-batch calls per event (0 = one per call), a flush after each trace
serve -tenant-dir: serve each tenant's newest lineage generation under <dir>
(named tenants with none are trained and published first) and hot-swap
resident tenants onto generations added by profile publish
serve -http: expose /metrics, /tenants, /decisions, /traces, /traces/{id},
/healthz, /readyz, /debug/pprof/ on <addr>; the replay then stays alive until
SIGINT/SIGTERM. /decisions and /traces take ?tenant=ID, optional on a
one-tenant fleet
serve -shed: risk-aware admission instead of backpressure — high-risk
sessions always scored, low-risk ones thinned as queues fill
serve -sql-channel: two-channel detection — an SQL-behaviour scorer (query
signatures, result cardinalities, sensitive columns) runs beside the HMM and
the fused judge escalates when the weighted margins agree; tune with
-sql-window, -sql-sensitive, -fusion-hmm-weight, -fusion-sql-weight, and
-fusion-slack (negative disables escalation). Each named tenant trains its
own SQL profile.
serve -trace: retain up to <n> end-to-end decision traces per tenant (alerts
always kept, healthy ops sampled 1-in-<trace-sample>) and expose them on
/traces and /traces/{id}; explain renders one as a forensic timeline
explain: reconstruct an alert's pipeline timeline — ingest, routing, shed
admission, per-channel scoring, fusion, sink delivery — from a live server's
/traces endpoint (-http, numeric alert seq or trace ID) or from a recorded
/decisions JSON capture (-log)`)
}

func lookupApp(name string) (*dataset.App, error) {
	apps := append(dataset.CAApps(), dataset.SIRApps()...)
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown app %q", name)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	appName := fs.String("app", "appb", "application to analyze")
	verbose := fs.Bool("v", false, "dump the full pCTM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, err := lookupApp(*appName)
	if err != nil {
		return err
	}
	sa, err := core.Analyze(app.Prog)
	if err != nil {
		return err
	}
	fmt.Printf("program %s: %d functions, %d blocks, %d call sites\n",
		app.Name, len(app.Prog.Functions), app.Prog.NumBlocks(), app.NumStates())
	fmt.Printf("labelled output statements (DDG): %d\n", len(sa.DDG.Labels))
	for site, label := range sa.DDG.Labels {
		fmt.Printf("  %s -> %s\n", site, label)
	}
	fmt.Printf("pCTM: %d sites, %d observation labels\n", sa.PCTM.NumSites(), len(sa.PCTM.Labels()))
	fmt.Printf("timings: cfg=%v probest=%v aggregation=%v\n",
		sa.Timings.BuildCFG, sa.Timings.ProbEst, sa.Timings.Aggregation)
	if err := sa.PCTM.CheckInvariants(1e-9); err != nil {
		fmt.Printf("pCTM invariants: VIOLATED: %v\n", err)
	} else {
		fmt.Println("pCTM invariants: ok")
	}
	if *verbose {
		fmt.Print(sa.PCTM)
	}
	return nil
}

// loadProfile loads a saved profile file, checking its CRC.
func loadProfile(path string) (*profile.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := profile.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func trainApp(app *dataset.App) (*profile.Profile, error) {
	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		return nil, err
	}
	p, _, err := core.Train(app.Prog, traces, profile.Options{
		Train:           hmm.TrainOptions{MaxIters: 12},
		MaxTrainWindows: 1500,
	})
	return p, err
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	appName := fs.String("app", "appb", "application to train")
	out := fs.String("out", "", "profile output path (gob)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, err := lookupApp(*appName)
	if err != nil {
		return err
	}
	p, err := trainApp(app)
	if err != nil {
		return err
	}
	fmt.Printf("trained %s: %d states (before reduction %d), %d symbols, threshold %.4f, %d iterations\n",
		p.Program, p.StatesAfter, p.StatesBefore, len(p.Symbols), p.Threshold, p.TrainResult.Iterations)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := p.Save(f); err != nil {
			return err
		}
		fmt.Println("profile written to", *out)
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	appName := fs.String("app", "appb", "application to monitor")
	profPath := fs.String("profile", "", "trained profile (gob); trains fresh when empty")
	attackID := fs.String("attack", "", "attack to stage: 1..5 or mitm (empty = normal runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	app, err := lookupApp(*appName)
	if err != nil {
		return err
	}

	var p *profile.Profile
	if *profPath != "" {
		if p, err = loadProfile(*profPath); err != nil {
			return err
		}
	} else {
		fmt.Println("training profile (pass -profile to reuse one)...")
		if p, err = trainApp(app); err != nil {
			return err
		}
	}

	prog := app.Prog
	cases := app.TestCases

	var atk *attack.Attack
	if *attackID != "" {
		if *attackID == "mitm" {
			a := attack.AppBMITM()
			atk = &a
		} else {
			n, err := strconv.Atoi(*attackID)
			if err != nil {
				return fmt.Errorf("bad -attack %q", *attackID)
			}
			for _, a := range attack.AppBAttacks() {
				if a.ID == n {
					cp := a
					atk = &cp
				}
			}
			if atk == nil {
				return fmt.Errorf("no attack %d", n)
			}
		}
		if prog, err = atk.Apply(app.Prog); err != nil {
			return err
		}
		if atk.Cases != nil {
			cases = atk.Cases
		}
		fmt.Printf("staging attack %d (%s): %s\n", atk.ID, atk.Name, atk.Description)
	}

	totals := map[detect.Flag]int{}
	for _, tc := range cases {
		var setup func(*interp.Interp, *interp.World)
		if atk != nil {
			setup = atk.Setup
		}
		tr, err := app.RunCase(prog, tc, collector.ModeADPROM, setup)
		if err != nil {
			return err
		}
		mon := core.NewMonitor(p, nil)
		alerts := mon.ObserveTrace(tr)
		for _, a := range alerts {
			totals[a.Flag]++
		}
		if len(alerts) > 0 {
			a := alerts[0]
			fmt.Printf("case %-16s %3d alerts; first: %s", tc.Name, len(alerts), a.Flag)
			if a.Flag == detect.FlagDL && len(a.Origins) > 0 {
				fmt.Printf(" (source: %v)", a.Origins)
			}
			fmt.Println()
		}
	}
	if len(totals) == 0 {
		fmt.Println("no alerts: behaviour matches the profile")
	} else {
		fmt.Printf("alert totals: %v\n", totals)
	}
	return nil
}

// cmdProfile groups profile-file utilities: inspect and publish.
func cmdProfile(args []string) error {
	switch {
	case len(args) > 1 && args[0] == "inspect":
		return inspectProfiles(args[1:])
	case len(args) > 0 && args[0] == "publish":
		return publishProfile(args[1:])
	}
	return errors.New("usage: adprom profile inspect <file>... | adprom profile publish -tenant-dir <dir> -tenant <id> <file>")
}

// publishProfile makes a saved profile a tenant's next generation in a
// fleet profile store. The file's bytes are checked (CRC and model shape)
// and written into the tenant's lineage unchanged, with a manifest entry
// recording the CRC `profile inspect` prints for the file, each atomically;
// a daemon serving the store puts it live.
func publishProfile(args []string) error {
	fs := flag.NewFlagSet("profile publish", flag.ExitOnError)
	dir := fs.String("tenant-dir", "", "fleet profile store root (serve's -tenant-dir)")
	id := fs.String("tenant", "", "tenant whose lineage receives the profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *id == "" || fs.NArg() != 1 {
		return errors.New("usage: adprom profile publish -tenant-dir <dir> -tenant <id> <file>")
	}
	path := fs.Arg(0)
	saved, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	reg, err := tenant.OpenRegistry(*dir)
	if err != nil {
		return err
	}
	e, err := reg.Publish(*id, saved, "operator")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("published %s as tenant %s generation %d (%s, crc32 %s)\n", path, *id, e.Generation, e.File, e.Checksum)
	return nil
}

// inspectProfiles prints each saved profile's codec header (format
// version, payload size, CRC-32) and model summary, verifying integrity on
// the way — corrupt or newer-format files fail with the codec's typed
// errors instead of decoding garbage.
func inspectProfiles(paths []string) error {
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		info, _, err := profile.Inspect(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		format := fmt.Sprintf("v%d", info.FormatVersion)
		if info.FormatVersion == 0 {
			format = "v0 (legacy headerless)"
		}
		fmt.Printf("%s:\n", path)
		fmt.Printf("  format   %s, %d payload bytes, crc32 %s\n", format, info.PayloadBytes, info.Checksum)
		fmt.Printf("  program  %s\n", info.Program)
		fmt.Printf("  model    %d states, %d symbols, reduced=%v, %d training iterations\n",
			info.States, info.Symbols, info.Reduced, info.TrainedIters)
		fmt.Printf("  detect   window %d, threshold %.4f\n", info.WindowLen, info.Threshold)
	}
	return nil
}

func cmdExperiment(args []string) error {
	fs := flag.NewFlagSet("experiment", flag.ExitOnError)
	full := fs.Bool("full", false, "run at full scale (slow)")
	seed := fs.Int64("seed", 1, "experiment seed")
	if len(args) == 0 {
		return fmt.Errorf("experiment id required")
	}
	id := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cfg := experiments.Config{Quick: !*full, Seed: *seed}

	run := func(id string) error {
		var rep *experiments.Report
		var err error
		switch id {
		case "table3":
			_, rep, err = experiments.Table3()
		case "table4":
			_, rep, err = experiments.Table4()
		case "table5":
			_, rep, err = experiments.Table5(cfg)
		case "table6":
			_, rep, err = experiments.Table6(cfg)
		case "table7":
			_, rep, err = experiments.Table7(cfg)
		case "table8":
			_, rep, err = experiments.Table8(cfg)
		case "fig10":
			_, rep, err = experiments.Fig10(cfg)
		case "clustering":
			_, rep, err = experiments.Clustering(cfg)
		case "ablation":
			_, rep, err = experiments.Ablation(cfg)
		case "corpus":
			_, rep, err = experiments.Corpus(cfg)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return err
		}
		fmt.Println(rep)
		return nil
	}

	if id == "all" {
		for _, e := range []string{"table3", "table4", "table5", "table6", "table7", "table8", "fig10", "clustering", "ablation", "corpus"} {
			if err := run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	return run(id)
}
