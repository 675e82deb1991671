package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/ingest"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/sqlchan"
	"adprom/internal/tenant"
)

// tenantRT is one tenant's trained models and its healthy run pool.
type tenantRT struct {
	name    string
	app     *dataset.App
	prof    *profile.Profile
	sql     *sqlchan.Profile
	healthy []*poolTrace
}

// fusion is serve's default fusion rule (all -fusion-* flags at 0).
var fusion = detect.FusionConfig{}

// sqlOptions is serve's default SQL-channel training (-sql-sensitive
// name,balance, default window).
var sqlOptions = sqlchan.Options{SensitiveColumns: []string{"name", "balance"}}

// trainTenants collects each tenant app's traces and trains its HMM profile
// and SQL profile with serve's settings; the traces become the healthy pool.
func trainTenants(w *workload) ([]*tenantRT, error) {
	var out []*tenantRT
	for t, name := range w.tenants {
		var app *dataset.App
		for _, a := range dataset.CAApps() {
			if a.Name == name {
				app = a
			}
		}
		if app == nil {
			return nil, fmt.Errorf("unknown app %q", name)
		}
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			return nil, err
		}
		p, _, err := core.Train(app.Prog, traces, profile.Options{
			Train:           hmm.TrainOptions{MaxIters: 12},
			MaxTrainWindows: 1500,
		})
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		sp, err := sqlchan.Train(traces, sqlOptions)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		tr := &tenantRT{name: name, app: app, prof: p, sql: sp}
		for _, calls := range traces {
			tr.healthy = append(tr.healthy, &poolTrace{tenant: t, calls: wireView(calls)})
		}
		out = append(out, tr)
	}
	return out, nil
}

// instance is the fleet daemon's serving stack, started in process the way
// `adprom serve -tenants … -sql-channel` starts it: a Router of per-tenant
// shards (default workers and queue depth, Block policy, SQL channel plus
// fusion) behind an ingest server on a loopback listener.
type instance struct {
	router   *tenant.Router
	srv      *ingest.Server
	addr     string
	sink     *recSink
	serveErr chan error
	shards   []*tenant.Shard
	alerts   []*alertLog // per tenant
	warm     []*runRec
}

// startInstance starts a stack over the trained tenants and sends one
// warm-up run per tenant, returning once each has its verdict. tag prefixes
// the warm-up session ids.
func startInstance(w *workload, tenants []*tenantRT, clk clock, sessions *sync.Map, traced bool, tag string) (*instance, error) {
	in := &instance{serveErr: make(chan error, 1)}
	in.sink = &recSink{clk: clk, traced: traced, sessions: sessions}
	cfg := tenant.Config{
		MaxActive: 64,
		RuntimeOptions: []runtime.Option{
			runtime.WithQueueDepth(256),
			runtime.WithScorerMode(hmm.ScorerExact),
			runtime.WithJudgeObserver(in.sink.judge),
		},
		Static:    map[string]*profile.Profile{},
		PerTenant: map[string][]runtime.Option{},
	}
	if w.programTrace {
		cfg.RuntimeOptions = append(cfg.RuntimeOptions, runtime.WithTracing(1024, 16))
	}
	for _, tr := range tenants {
		log := &alertLog{clk: clk}
		in.alerts = append(in.alerts, log)
		cfg.Static[tr.name] = tr.prof
		cfg.PerTenant[tr.name] = []runtime.Option{
			runtime.WithSQLChannel(tr.sql),
			runtime.WithFusion(fusion),
			runtime.WithAlertFunc(log.add),
		}
	}
	router, err := tenant.NewRouter(cfg)
	if err != nil {
		return nil, err
	}
	in.router = router
	in.sink.router = router
	for _, tr := range tenants {
		sh, err := router.Shard(tr.name)
		if err != nil {
			router.Close()
			return nil, err
		}
		in.shards = append(in.shards, sh)
	}
	if in.srv, err = ingest.NewServer(ingest.ServerConfig{Sink: in.sink, Codec: ingest.CodecAuto}); err != nil {
		router.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		return nil, err
	}
	in.addr = ln.Addr().String()
	go func() { in.serveErr <- in.srv.Serve(ln) }()
	if err := in.warmUp(w, tenants, sessions, tag); err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// warmUp sends each tenant's first healthy run over one connection and
// waits for every verdict.
func (in *instance) warmUp(w *workload, tenants []*tenantRT, sessions *sync.Map, tag string) error {
	cs := newConnState(-1, len(tenants), true)
	var buf []byte
	for t, tr := range tenants {
		ss := &sessState{id: tag + "-warm-" + tr.name, tname: tr.name, tenant: t, conn: cs}
		sessions.Store(ss.id, ss)
		r := &runRec{sess: ss, pt: tr.healthy[0], warm: true}
		var err error
		if buf, err = appendRun(buf, w.codec, r, 0, int32(len(r.pt.calls)), true, w.sessions > 0); err != nil {
			return err
		}
		cs.pending.Add(1)
		cs.inflight <- r
		in.warm = append(in.warm, r)
	}
	conn, err := net.Dial("tcp", in.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(buf); err != nil {
		return err
	}
	for range tenants {
		select {
		case <-cs.acks:
		case err := <-in.serveErr:
			return fmt.Errorf("ingest server stopped during warm-up: %v", err)
		case <-time.After(30 * time.Second):
			return fmt.Errorf("warm-up verdicts did not arrive")
		}
	}
	return nil
}

// calls sums the calls the instance's shards have judged.
func (in *instance) calls() uint64 {
	var n uint64
	for _, sh := range in.shards {
		n += sh.Runtime().Stats().Calls
	}
	return n
}

// stop closes the ingest server, then the router (draining every shard and
// its alert sink).
func (in *instance) stop() {
	in.srv.Close()
	in.router.Close()
}
