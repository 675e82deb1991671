package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"adprom"
	"adprom/internal/collector"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/ingest"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/shed"
	"adprom/internal/sqlchan"
	"adprom/internal/tenant"
)

// serveConfig is everything serve's flags decide.
type serveConfig struct {
	// The built-in replay (no -ingest-addr): one app's traces streamed into
	// a one-tenant fleet.
	app, profile           string
	streams, repeat, batch int

	// Runtime options applied to every tenant shard.
	workers, queue        int
	scorer                string
	shed                  bool
	traceCap, traceSample int

	// The fleet daemon.
	tenants, ingestAddr, ingestCodec, tenantDir string
	quota, maxActive                            int
	watchEvery                                  time.Duration
	httpAddr                                    string
	logEvents                                   bool
	logFormat                                   string
	sql                                         sqlChannelFlags

	// log is the -log event logger; nil without -log.
	log *slog.Logger

	// alert receives every alert the daemon raises, tagged with its tenant;
	// parseServe sets it to the event log (or alertOut).
	alert tenant.AlertFunc
	// alertOut is where alert lines go without -log: stdout.
	alertOut io.Writer

	// faults are runtime options applied after the flags' — the tests'
	// fault and latency injectors. No flag sets them, so the shipped binary
	// carries no injector.
	faults []runtime.Option
}

// replay reports whether serve runs the built-in replay client instead of
// waiting for remote collectors.
func (sc *serveConfig) replay() bool { return sc.ingestAddr == "" }

func parseServe(args []string) (*serveConfig, error) {
	sc := &serveConfig{alertOut: os.Stdout}
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&sc.app, "app", "appb", "application whose traces the built-in replay streams in (without -ingest-addr)")
	fs.StringVar(&sc.profile, "profile", "", "trained profile (gob) for the replayed app; trains fresh when empty")
	fs.IntVar(&sc.streams, "streams", 64, "concurrent replay connections, one session each")
	fs.IntVar(&sc.workers, "workers", 0, "detection workers per tenant shard (0 = GOMAXPROCS)")
	fs.IntVar(&sc.queue, "queue", 256, "per-worker ingest queue depth")
	fs.BoolVar(&sc.shed, "shed", false, "risk-aware admission instead of backpressure: always score high-risk sessions, thin low-risk ones under pressure")
	fs.IntVar(&sc.repeat, "repeat", 8, "replay passes per stream")
	fs.IntVar(&sc.batch, "batch", 64, "calls per replayed observe event (0 = one event per call)")
	fs.StringVar(&sc.scorer, "scorer", "exact", "scoring kernel: exact or topk:<k> (approximate, with reported error bound)")
	fs.DurationVar(&sc.watchEvery, "watch-interval", 500*time.Millisecond, "how often the -tenant-dir lineages are checked for published generations")
	fs.StringVar(&sc.httpAddr, "http", "", "serve the introspection endpoint (/metrics /tenants /decisions /traces /healthz /readyz /debug/pprof/) on this address; the replay lingers until SIGINT/SIGTERM")
	fs.IntVar(&sc.traceCap, "trace", 0, "retain up to this many decision traces per tenant (0 = tracing off); alerts always kept, healthy ops sampled")
	fs.IntVar(&sc.traceSample, "trace-sample", 16, "with -trace, keep one in this many healthy (unflagged) traces")
	fs.BoolVar(&sc.logEvents, "log", false, "emit structured events (alerts, worker restarts, quarantines, swaps, tenant loads) to stderr")
	fs.StringVar(&sc.logFormat, "log-format", "text", "structured event encoding for -log: text or json")
	fs.StringVar(&sc.tenants, "tenants", "", "comma-separated app names to serve as tenants (with -ingest-addr; e.g. apph,appb)")
	fs.StringVar(&sc.ingestAddr, "ingest-addr", "", "accept collector events over TCP on this address instead of running the built-in replay")
	fs.StringVar(&sc.ingestCodec, "ingest-codec", "auto", "ingest wire format: auto, ndjson, or binary (the replay sends binary frames unless ndjson)")
	fs.StringVar(&sc.tenantDir, "tenant-dir", "", "fleet profile store root (one lineage per tenant, published with `adprom profile publish`); serves each tenant's newest generation and hot-swaps resident tenants onto newer ones")
	fs.IntVar(&sc.quota, "tenant-quota", 0, "max concurrent sessions per tenant (0 = unlimited)")
	fs.IntVar(&sc.maxActive, "tenant-max-active", 64, "max resident tenant shards; past it the coldest tenant is evicted (negative disables)")
	sc.sql.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if sc.tenants != "" && sc.replay() {
		return nil, errors.New("-tenants needs -ingest-addr (the TCP address collectors stream to)")
	}
	if sc.profile != "" && sc.tenantDir != "" {
		return nil, errors.New("-profile and -tenant-dir both name the tenant's profile; publish the file with `adprom profile publish` instead")
	}
	sc.streams = max(sc.streams, 1)
	var err error
	if sc.log, err = sc.logger(); err != nil {
		return nil, err
	}
	// Alerts are the daemon's product, so deliver each one to the event log
	// (or stdout) rather than leaving them visible only through /decisions.
	// Routing them through the async sink pipeline also completes the traced
	// op timeline — ingest→route→score→fusion→sink — for every alert. Two
	// tenants may stream the same session ID, so every alert names its
	// tenant.
	sc.alert = func(tenant, session string, a detect.Alert) {
		if sc.log != nil {
			sc.log.Warn("alert", "tenant", tenant, "session", session, "seq", a.Seq, "flag", a.Flag.String(), "score", a.Score,
				"threshold", a.Threshold, "channels", strings.Join(a.Channels, ","))
			return
		}
		fmt.Fprintf(sc.alertOut, "alert: tenant=%s session=%s seq=%d flag=%s score=%.4f threshold=%.4f channels=%s\n",
			tenant, session, a.Seq, a.Flag, a.Score, a.Threshold, strings.Join(a.Channels, ","))
	}
	return sc, nil
}

// logger builds the stderr slog logger for -log in the encoding picked by
// -log-format: text (the default, human-oriented logfmt) or json (one
// object per line, for log shippers that index by key). Nil without -log.
func (sc *serveConfig) logger() (*slog.Logger, error) {
	if !sc.logEvents {
		return nil, nil
	}
	switch sc.logFormat {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", sc.logFormat)
	}
}

// cmdServe runs the detection daemon: a fleet of per-tenant profile shards
// fed over TCP. With -ingest-addr it serves remote collectors until
// SIGINT/SIGTERM; without it, it serves the one tenant -app on a loopback
// listener and streams that app's traces in through the built-in replay
// client, then reports throughput (lingering for -http scrapes first).
func cmdServe(args []string) error {
	sc, err := parseServe(args)
	if err != nil {
		return err
	}
	d, err := startDaemon(sc)
	if err != nil {
		return err
	}
	return d.run()
}

// parseScorerMode parses the -scorer flag: "exact" or "topk:<k>".
func parseScorerMode(s string) (hmm.ScorerMode, error) {
	switch {
	case s == "" || s == "exact":
		return hmm.ScorerExact, nil
	case len(s) > 5 && s[:5] == "topk:":
		k, err := strconv.Atoi(s[5:])
		if err != nil || k < 1 {
			return hmm.ScorerMode{}, fmt.Errorf("bad -scorer %q (want exact or topk:<k>, k >= 1)", s)
		}
		return hmm.ScorerTopK(k), nil
	default:
		return hmm.ScorerMode{}, fmt.Errorf("bad -scorer %q (want exact or topk:<k>)", s)
	}
}

// sqlChannelFlags is the serve flag subset enabling two-channel detection:
// an SQL-behaviour scorer fused with the HMM channel.
type sqlChannelFlags struct {
	enabled   bool
	window    int
	sensitive string
	hmmWeight float64
	sqlWeight float64
	slack     float64
}

// register adds the two-channel detection flags to serve's flag set.
func (sf *sqlChannelFlags) register(fs *flag.FlagSet) {
	fs.BoolVar(&sf.enabled, "sql-channel", false, "enable the SQL-behaviour detection channel fused with the HMM channel")
	fs.IntVar(&sf.window, "sql-window", 0, "SQL channel sliding query-window length (0 = default)")
	fs.StringVar(&sf.sensitive, "sql-sensitive", "name,balance", "comma-separated sensitive column names for DL attribution")
	fs.Float64Var(&sf.hmmWeight, "fusion-hmm-weight", 0, "HMM margin weight in fused scoring (0 = default)")
	fs.Float64Var(&sf.sqlWeight, "fusion-sql-weight", 0, "SQL margin weight in fused scoring (0 = default)")
	fs.Float64Var(&sf.slack, "fusion-slack", 0, "fused-margin escalation slack (0 = default, negative disables escalation)")
}

// options trains the SQL-behaviour profile for one app from its collected
// traces (the corpus the HMM trains on) and returns the shard options that
// fuse it with the HMM channel.
func (sf *sqlChannelFlags) options(app *dataset.App, traces []collector.Trace) ([]runtime.Option, error) {
	sqlProf, err := sqlchan.Train(traces, sqlchan.Options{WindowLen: sf.window, SensitiveColumns: splitList(sf.sensitive)})
	if err != nil {
		return nil, fmt.Errorf("sql channel for %s: %w", app.Name, err)
	}
	fmt.Printf("tenant %s: sql channel: %s\n", app.Name, sqlProf)
	return []runtime.Option{
		runtime.WithSQLChannel(sqlProf),
		runtime.WithFusion(detect.FusionConfig{HMMWeight: sf.hmmWeight, SQLWeight: sf.sqlWeight, EscalationSlack: sf.slack}),
	}, nil
}

// runtimeOptions maps the flags to the options every tenant shard runs with.
func (sc *serveConfig) runtimeOptions() ([]runtime.Option, error) {
	mode, err := parseScorerMode(sc.scorer)
	if err != nil {
		return nil, err
	}
	opts := []runtime.Option{
		runtime.WithWorkers(sc.workers),
		runtime.WithQueueDepth(sc.queue),
		runtime.WithScorerMode(mode),
	}
	if sc.log != nil {
		opts = append(opts, runtime.WithLogger(sc.log))
	}
	if sc.traceCap > 0 {
		// Every tenant shard retains its own bounded trace store; /traces/{id}
		// searches them all.
		opts = append(opts, runtime.WithTracing(sc.traceCap, sc.traceSample))
	}
	if sc.shed {
		opts = append(opts, runtime.WithShedConfig(shed.Config{Seed: 1}))
	}
	return append(opts, sc.faults...), nil
}

// streamSession names replay stream i's session.
func streamSession(i int) string { return fmt.Sprintf("stream-%03d", i) }

// daemon is a running fleet: the tenant router behind a TCP ingest
// listener, the optional introspection endpoint, and, with -tenant-dir, the
// watcher that hot-swaps resident tenants onto published generations.
type daemon struct {
	sc       *serveConfig
	router   *tenant.Router
	ingest   *ingest.Server
	codec    ingest.Codec
	addr     string
	serveErr chan error
	http     *http.Server
	tenants  []string          // the tenants named at startup
	traces   []collector.Trace // the replayed app's traces

	stopWatch context.CancelFunc
	watchWG   sync.WaitGroup
}

// startDaemon builds and starts the fleet. With -tenant-dir every tenant is
// served from its lineage's newest generation, and a named tenant whose
// lineage is empty is trained and published as generation 1 first. Without
// it each named tenant serves the -profile file (replay only) or a fresh
// training run.
func startDaemon(sc *serveConfig) (*daemon, error) {
	codec, err := ingest.ParseCodec(sc.ingestCodec)
	if err != nil {
		return nil, err
	}
	opts, err := sc.runtimeOptions()
	if err != nil {
		return nil, err
	}
	cfg := tenant.Config{
		MaxActive:            sc.maxActive,
		MaxSessionsPerTenant: sc.quota,
		Alert:                sc.alert,
		RuntimeOptions:       opts,
		Logger:               sc.log,
	}
	var reg *tenant.Registry
	if sc.tenantDir != "" {
		if reg, err = tenant.OpenRegistry(sc.tenantDir); err != nil {
			return nil, err
		}
		cfg.Loader = reg
	}
	names := []string{sc.app}
	if !sc.replay() {
		if names = splitList(sc.tenants); len(names) == 0 && reg == nil {
			return nil, errors.New("serving -ingest-addr needs -tenants or -tenant-dir")
		}
	}

	d := &daemon{sc: sc, codec: codec, tenants: names, serveErr: make(chan error, 1)}
	if reg == nil {
		cfg.Static = make(map[string]*profile.Profile, len(names))
	}
	cfg.PerTenant = map[string][]runtime.Option{}
	for _, name := range names {
		app, err := lookupApp(name)
		if err != nil {
			return nil, err
		}
		var traces []collector.Trace
		if sc.replay() || sc.sql.enabled {
			if traces, err = app.CollectTraces(collector.ModeADPROM); err != nil {
				return nil, fmt.Errorf("tenant %s: %w", name, err)
			}
		}
		if sc.replay() {
			d.traces = traces
		}
		if sc.sql.enabled {
			// Each named tenant's shard gets its own SQL profile, trained on
			// the traces its HMM trains on. Tenants first seen on the wire
			// (lazy loads) stay single-channel.
			if cfg.PerTenant[name], err = sc.sql.options(app, traces); err != nil {
				return nil, err
			}
		}
		if reg != nil {
			err = publishIfEmpty(app, reg)
		} else {
			cfg.Static[name], err = sc.startProfile(app)
		}
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
	}

	if d.router, err = tenant.NewRouter(cfg); err != nil {
		return nil, err
	}
	if err := d.listen(); err != nil {
		d.close()
		return nil, err
	}
	if reg != nil {
		var watchCtx context.Context
		watchCtx, d.stopWatch = context.WithCancel(context.Background())
		d.watchWG.Add(1)
		go func() {
			defer d.watchWG.Done()
			reg.Watch(watchCtx, sc.watchEvery, d.router, reportSwap)
		}()
		fmt.Printf("watching %s every %v for published generations\n", reg.Dir(), sc.watchEvery)
	}
	return d, nil
}

// startProfile resolves a named tenant's profile on a fleet without a
// profile store: the -profile file (replay only), else a fresh training run.
func (sc *serveConfig) startProfile(app *dataset.App) (*profile.Profile, error) {
	if sc.replay() && sc.profile != "" {
		return loadProfile(sc.profile)
	}
	fmt.Printf("tenant %s: training profile...\n", app.Name)
	return trainApp(app)
}

// publishIfEmpty trains a named tenant and publishes the profile as
// generation 1 when the tenant's lineage has no generation yet.
func publishIfEmpty(app *dataset.App, reg *tenant.Registry) error {
	_, err := reg.LoadTenant(app.Name)
	if !errors.Is(err, os.ErrNotExist) {
		if err == nil {
			fmt.Printf("tenant %s: serving newest registry generation\n", app.Name)
		}
		return err
	}
	fmt.Printf("tenant %s: training profile...\n", app.Name)
	p, err := trainApp(app)
	if err != nil {
		return err
	}
	var saved bytes.Buffer
	if err := p.Save(&saved); err != nil {
		return err
	}
	if _, err := reg.Publish(app.Name, saved.Bytes(), "serve-startup"); err != nil {
		return fmt.Errorf("publishing: %w", err)
	}
	return nil
}

// listen starts the ingest listener (loopback on an ephemeral port for the
// replay) and the introspection endpoint.
func (d *daemon) listen() error {
	var err error
	if d.ingest, err = ingest.NewServer(ingest.ServerConfig{Sink: d.router, Codec: d.codec, Logger: d.sc.log}); err != nil {
		return err
	}
	addr := d.sc.ingestAddr
	if d.sc.replay() {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	d.addr = ln.Addr().String()
	go func() { d.serveErr <- d.ingest.Serve(ln) }()
	fmt.Printf("ingest: listening on %s (codec %s)\n", d.addr, d.codec)
	if d.sc.httpAddr == "" {
		return nil
	}
	hln, err := net.Listen("tcp", d.sc.httpAddr)
	if err != nil {
		return err
	}
	d.http = &http.Server{Handler: adprom.NewFleetIntrospectionHandler(d.router, d.ingest)}
	go func() { _ = d.http.Serve(hln) }()
	fmt.Printf("introspection: http://%s (/metrics /tenants /decisions /traces /traces/{id} /healthz /readyz /debug/pprof/)\n", hln.Addr())
	return nil
}

// reportSwap prints what the lineage watcher did with a published
// generation.
func reportSwap(sw tenant.Swap) {
	if sw.Err != nil {
		fmt.Fprintf(os.Stderr, "tenant %s: generation %d refused: %v\n", sw.Tenant, sw.Entry.Generation, sw.Err)
		return
	}
	fmt.Printf("tenant %s: published generation %d live as runtime generation %d (threshold %.4f)\n",
		sw.Tenant, sw.Entry.Generation, sw.Generation, sw.Threshold)
}

// run serves until the replay is done (lingering for -http until
// SIGINT/SIGTERM) or, without the replay, until SIGINT/SIGTERM; then it
// shuts down and prints the final stats.
func (d *daemon) run() error {
	var sigc chan os.Signal // nil when the replay exits without lingering
	if !d.sc.replay() || d.http != nil {
		sigc = make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
	}
	var elapsed time.Duration
	if d.sc.replay() {
		fmt.Printf("serving %s: %d streams x %d passes over %d traces\n", d.sc.app, d.sc.streams, d.sc.repeat, len(d.traces))
		start := time.Now()
		if err := d.replay(); err != nil {
			d.close()
			return err
		}
		elapsed = time.Since(start)
		if sigc != nil {
			// Stay alive so operators (and the CI smoke tests) can inspect the
			// still-serving fleet; profile hot-swaps keep applying meanwhile.
			fmt.Println("replay done; introspection endpoint still live — SIGINT/SIGTERM to exit")
		}
	} else {
		fmt.Printf("fleet serving %d tenants — SIGINT/SIGTERM to exit\n", len(d.tenants))
	}
	if sigc != nil {
		select {
		case <-sigc:
		case err := <-d.serveErr:
			if err != nil {
				d.close()
				return err
			}
		}
	}
	// Shards are read after Close drains them, which also empties the router.
	var shards []*tenant.Shard
	for _, id := range d.router.Tenants() {
		if sh, err := d.router.Shard(id); err == nil {
			shards = append(shards, sh)
		}
	}
	if err := d.close(); err != nil {
		return err
	}
	fmt.Printf("ingest: %s\n", d.ingest.Stats())
	for _, sh := range shards {
		fmt.Println(tenant.Stats{Tenant: sh.ID(), Runtime: sh.Runtime().Stats()})
	}
	rs := d.router.Stats()
	fmt.Printf("router: tenants=%d loads=%d evictions=%d unknown=%d quota_rejected=%d\n",
		rs.ActiveTenants, rs.Loads, rs.Evictions, rs.UnknownTenant, rs.QuotaRejected)
	if !d.sc.replay() || len(shards) == 0 {
		return nil
	}
	rt := shards[0].Runtime()
	st := rt.Stats()
	fmt.Printf("replayed in %v: %.0f calls/sec across %d workers\n",
		elapsed.Round(time.Millisecond), float64(st.Calls)/elapsed.Seconds(), st.Workers)
	if d.sc.shed {
		fmt.Printf("shedding: %d calls shed over %d rejecting decisions (rate %.4f); estimated miss probability %.4f; queue high water %d calls\n",
			st.Shed, rt.ShedSnapshot().ShedDecisions, st.ShedRate, st.EstimatedMissProb, st.QueueHighWater)
	}
	return nil
}

// close stops the watcher and the introspection endpoint, then the ingest
// listener, then drains and closes every tenant shard.
func (d *daemon) close() error {
	if d.stopWatch != nil {
		d.stopWatch()
		d.watchWG.Wait()
	}
	if d.http != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = d.http.Shutdown(shutCtx)
		cancel()
	}
	if d.ingest != nil {
		d.ingest.Close()
	}
	if err := d.router.Close(); err != nil && !errors.Is(err, tenant.ErrClosed) {
		return err
	}
	return nil
}

// replay is the built-in collector: one TCP connection per stream into the
// daemon's own ingest listener, each carrying one session. Pass p of
// stream i sends trace (i+p) mod len(traces) as observe events of -batch
// calls (one call per event at -batch 0) and then a flush, in binary frames
// or, under -ingest-codec ndjson, NDJSON lines. No acknowledgements are
// needed: after the client's CloseWrite the server handles every event
// before it reads EOF and closes its end, and each flush waits for the
// worker, so a connection the server has closed is fully judged.
func (d *daemon) replay() error {
	errs := make(chan error, d.sc.streams)
	var wg sync.WaitGroup
	for i := 0; i < d.sc.streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := d.replayStream(i); err != nil {
				errs <- fmt.Errorf("stream %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (d *daemon) replayStream(i int) error {
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	encode := ingest.EncodeFrame
	if d.codec == ingest.CodecNDJSON {
		encode = ingest.EncodeNDJSON
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	var buf []byte
	send := func(e ingest.Event) error {
		e.Tenant, e.Session = d.sc.app, streamSession(i)
		if buf, err = encode(buf[:0], e); err != nil {
			return err
		}
		_, err = bw.Write(buf)
		return err
	}
	step := max(d.sc.batch, 1)
	for pass := 0; pass < d.sc.repeat; pass++ {
		tr := d.traces[(i+pass)%len(d.traces)]
		for lo := 0; lo < len(tr); lo += step {
			if err := send(ingest.Event{Kind: ingest.KindObserve, Calls: tr[lo:min(lo+step, len(tr))]}); err != nil {
				return err
			}
		}
		if err := send(ingest.Event{Kind: ingest.KindFlush}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
