// Package adprom is the public facade of the AD-PROM reproduction: an
// anomaly-detection system protecting relational databases against data
// leakage by application programs (Fadolalkarim, Bertino, Sallam — ICDE
// 2020).
//
// AD-PROM builds a behavioural profile of a database client application by
// combining static analysis (control-flow graphs, data-dependency labelling
// of output statements, call-transition matrices aggregated over the call
// graph) with dynamic analysis (a hidden Markov model initialised from the
// static matrix and trained on library-call traces). At run time, sliding
// windows of library calls are scored against the model; low-probability
// windows raise alerts classified as Anomalous, DL (data leak, connected to
// the originating query), or OutOfContext (a known call from an unexpected
// function).
//
// # Quick start
//
//	app := adprom.HospitalApp()                     // a bundled client app
//	traces, _ := app.CollectTraces(adprom.ModeADPROM)
//	prof, _, _ := adprom.Train(app.Prog, traces, adprom.TrainOptions{})
//
//	// One stream: a Monitor, configured with functional options.
//	mon := adprom.NewMonitor(prof, adprom.WithSink(sink))
//	alerts := mon.ObserveTrace(suspiciousTrace)
//
//	// Many concurrent streams: a Runtime multiplexes per-session call
//	// streams onto a pool of detection workers over the shared profile.
//	// A session's Flush and Close return the alerts raised since its
//	// previous flush; the Monitor above keeps its whole history.
//	rt := adprom.NewRuntime(prof, adprom.WithWorkers(8))
//	defer rt.Close()
//	rt.Session("client-42").Observe(call)
//
// The facade re-exports the supported surface of the internal packages; see
// examples/ for complete programs and internal/experiments for the paper's
// evaluation harness.
package adprom

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/interp"
	"adprom/internal/ir"
	"adprom/internal/lifecycle"
	"adprom/internal/metrics"
	"adprom/internal/minidb"
	"adprom/internal/obsv"
	"adprom/internal/profile"
	"adprom/internal/qsig"
	"adprom/internal/runtime"
	"adprom/internal/shed"
	"adprom/internal/sqlchan"
	"adprom/internal/trace"
)

// Program building and execution.
type (
	// Program is an application program in AD-PROM's IR.
	Program = ir.Program
	// Builder constructs programs; see NewProgram.
	Builder = ir.Builder
	// Interp executes programs; see NewInterp.
	Interp = interp.Interp
	// World is the execution environment (database, terminal, files, net).
	World = interp.World
	// Database is the embedded relational engine.
	Database = minidb.Database
)

// Collection and profiles.
type (
	// Trace is one run's recorded library-call sequence.
	Trace = collector.Trace
	// Call is one recorded library call.
	Call = collector.Call
	// Mode selects the collector strategy.
	Mode = collector.Mode
	// Profile is a trained application behaviour profile.
	Profile = profile.Profile
	// TrainOptions tunes profile construction.
	TrainOptions = profile.Options
	// HMMOptions tunes the Baum–Welch training inside TrainOptions.Train.
	HMMOptions = hmm.TrainOptions
	// StaticAnalysis is the Analyzer's output (DDG, CTMs, pCTM, timings).
	StaticAnalysis = core.StaticAnalysis
)

// Detection.
type (
	// Monitor replays or observes executions against a profile.
	Monitor = core.Monitor
	// Alert is one detection finding.
	Alert = detect.Alert
	// Flag classifies an alert.
	Flag = detect.Flag
	// AlertSink receives alerts (the security administrator).
	AlertSink = core.AlertSink
	// AlertFunc adapts a function to AlertSink.
	AlertFunc = core.AlertFunc
)

// Concurrent serving.
type (
	// Runtime multiplexes many concurrent per-session call streams onto a
	// pool of detection workers sharing one profile; see NewRuntime.
	Runtime = runtime.Runtime
	// Session is one monitored call stream inside a Runtime.
	Session = runtime.Session
	// RuntimeStats is a point-in-time snapshot of a Runtime's counters.
	RuntimeStats = runtime.Stats
	// JudgeHook observes (or vetoes) every completed window judgement; a
	// non-nil error quarantines the session. See WithJudgeHook.
	JudgeHook = runtime.JudgeHook
	// ShedConfig tunes the risk-aware admission controller: occupancy
	// watermarks, the guarantee band, risk-signal memories, and the seed
	// that makes shed decisions reproducible. See WithShedConfig.
	ShedConfig = shed.Config
	// ShedSnapshot is a point-in-time view of the admission controller:
	// shed counts, risk mass admitted vs shed, and the estimated
	// miss probability. See Runtime.ShedSnapshot.
	ShedSnapshot = shed.Snapshot
	// BatchShedError reports a partially or fully rejected multi-call
	// ObserveBatch under risk-aware shedding (a single call gets the plain
	// ErrShed): Shed of Batch calls were rejected, the rest were admitted in
	// order. It wraps ErrShed; match with errors.As for exact counts or
	// errors.Is(err, ErrShed) for the class.
	BatchShedError = runtime.BatchShedError
)

// Observability: decision provenance, latency histograms, and the live
// introspection endpoint (see NewIntrospectionHandler).
type (
	// Decision is the provenance record of one window judgement: session,
	// window offset, score vs threshold, verdict, profile generation, and —
	// for alerts — the triggering call's label and caller. Retrieve recent
	// ones with Runtime.Decisions; tune retention with WithDecisionLog.
	Decision = obsv.Decision
	// RuntimeHistograms bundles the runtime's latency histograms (per-call
	// scoring, flush/close, sink delivery); see Runtime.Histograms.
	RuntimeHistograms = runtime.Histograms
	// LatencyHistogram is one power-of-two-bucket latency histogram snapshot
	// with Mean and Quantile estimators.
	LatencyHistogram = metrics.HistogramSnapshot
)

// Profile lifecycle: drift detection, background retraining, and zero-
// downtime hot-swap (Runtime.SwapProfile).
type (
	// Lifecycle watches the live judgement stream for concept drift, retrains
	// in the background from judged-Normal traces, and hot-swaps the new
	// profile generation into its Runtime; see NewLifecycle.
	Lifecycle = lifecycle.Manager
	// LifecycleConfig tunes a Lifecycle.
	LifecycleConfig = lifecycle.Config
	// DriftConfig tunes the lifecycle's drift detector.
	DriftConfig = lifecycle.DriftConfig
	// DriftState is a snapshot of the drift detector.
	DriftState = lifecycle.DriftState
	// LifecycleStats is a snapshot of the lifecycle counters.
	LifecycleStats = metrics.LifecycleSnapshot
	// RetrainOptions tunes the lifecycle's background retraining pass.
	RetrainOptions = profile.RetrainOptions
	// ProfileRegistry is the versioned on-disk store of profile generations;
	// see OpenProfileRegistry.
	ProfileRegistry = lifecycle.Registry
	// RegistryEntry describes one persisted profile generation.
	RegistryEntry = lifecycle.Entry
)

// Profile serialisation errors (Profile.Save / LoadProfile); match with
// errors.Is.
var (
	// ErrCorruptProfile reports a truncated, bit-flipped, or structurally
	// unusable profile stream.
	ErrCorruptProfile = profile.ErrCorrupt
	// ErrIncompatibleProfile reports a profile written by a newer format
	// version than this build understands.
	ErrIncompatibleProfile = profile.ErrIncompatible
)

// Runtime ingest errors.
var (
	// ErrClosed reports an operation on a closed Runtime or Session.
	ErrClosed = runtime.ErrClosed
	// ErrShed reports a call rejected by the risk-aware admission
	// controller (see WithShedConfig); every queue-full rejection wraps it.
	ErrShed = runtime.ErrShed
	// ErrSessionFailed reports a session quarantined after a detection
	// failure (engine panic or judge-hook error); other sessions are
	// unaffected.
	ErrSessionFailed = runtime.ErrSessionFailed
)

// Datasets and attacks.
type (
	// App bundles a program, database seeder, and test cases.
	App = dataset.App
	// TestCase is one input vector.
	TestCase = dataset.TestCase
	// Attack is one adversary scenario.
	Attack = attack.Attack
)

// Collector modes.
const (
	// ModeADPROM records call labels and callers only (the paper's
	// collector).
	ModeADPROM = collector.ModeADPROM
	// ModeLtrace emulates ltrace's costly argument capture.
	ModeLtrace = collector.ModeLtrace
)

// Alert flags.
const (
	FlagNormal       = detect.FlagNormal
	FlagAnomalous    = detect.FlagAnomalous
	FlagDL           = detect.FlagDL
	FlagOutOfContext = detect.FlagOutOfContext
)

// Expr is an IR expression; build them with the constructors below.
type Expr = ir.Expr

// Expression constructors for program building: S (string literal), I
// (integer literal), V (variable), Cat (string concatenation), arithmetic,
// comparisons, and At (row indexing). They alias internal/ir's constructors
// so example programs read like the paper's C snippets.
func S(v string) Expr    { return ir.S(v) }
func I(v int64) Expr     { return ir.I(v) }
func V(name string) Expr { return ir.V(name) }
func Cat(p ...Expr) Expr { return ir.Cat(p...) }
func Add(l, r Expr) Expr { return ir.Add(l, r) }
func Sub(l, r Expr) Expr { return ir.Sub(l, r) }
func Mul(l, r Expr) Expr { return ir.Mul(l, r) }
func Div(l, r Expr) Expr { return ir.Div(l, r) }
func Mod(l, r Expr) Expr { return ir.Mod(l, r) }
func Eq(l, r Expr) Expr  { return ir.Eq(l, r) }
func Ne(l, r Expr) Expr  { return ir.Ne(l, r) }
func Lt(l, r Expr) Expr  { return ir.Lt(l, r) }
func Le(l, r Expr) Expr  { return ir.Le(l, r) }
func Gt(l, r Expr) Expr  { return ir.Gt(l, r) }
func Ge(l, r Expr) Expr  { return ir.Ge(l, r) }
func At(x, i Expr) Expr  { return ir.At(x, i) }

// NewProgram starts building a program named name (entry function "main").
func NewProgram(name string) *Builder { return ir.NewBuilder(name) }

// NewDatabase returns an empty embedded database.
func NewDatabase() *Database { return minidb.New() }

// NewWorld wraps a database (nil for a fresh one) in an execution world.
func NewWorld(db *Database) *World { return interp.NewWorld(db) }

// NewInterp builds an interpreter for prog in world.
func NewInterp(prog *Program, world *World) *Interp {
	return interp.New(prog, world, interp.Options{})
}

// Analyze runs AD-PROM's static phase: DDG labelling, per-function CTMs, and
// the aggregated pCTM.
func Analyze(prog *Program) (*StaticAnalysis, error) { return core.Analyze(prog) }

// Train runs the full training phase: static analysis followed by HMM
// initialisation, optional state reduction, and Baum–Welch over the traces.
func Train(prog *Program, traces []Trace, opts TrainOptions) (*Profile, *StaticAnalysis, error) {
	return core.Train(prog, traces, opts)
}

// TrainContext is Train with cancellation: a cancelled context aborts the
// Baum–Welch loop between iterations and surfaces ctx.Err() as the error.
func TrainContext(ctx context.Context, prog *Program, traces []Trace, opts TrainOptions) (*Profile, *StaticAnalysis, error) {
	return core.TrainContext(ctx, prog, traces, opts)
}

// Scorer configuration, shared by monitors and runtimes.
type (
	// ScorerMode selects the HMM scoring kernel detection runs on; the zero
	// value is ScorerExact. See WithScorerMode.
	ScorerMode = hmm.ScorerMode
)

// ScorerExact is the default scoring mode: the full transition matrix,
// bit-identical to the batch forward pass used during training.
var ScorerExact = hmm.ScorerExact

// ScorerTopK returns the approximate scoring mode that prunes each HMM
// transition row to its k largest entries (renormalised). Scoring cost per
// call drops from O(N²) to O(N·k); every judgement carries a sound
// per-window bound on the score error it may have introduced
// (Alert.ScoreErrorBound, Decision.ScoreErrorBound), so the approximation is
// visible rather than silent. Panics if k < 1.
func ScorerTopK(k int) ScorerMode { return hmm.ScorerTopK(k) }

// MonitorOption configures NewMonitor. Options that make sense for both
// single-stream monitors and concurrent runtimes (WithScorerMode) satisfy
// MonitorOption and RuntimeOption at once.
type MonitorOption interface{ applyMonitor(*monitorConfig) }

// RuntimeOption configures NewRuntime.
type RuntimeOption interface{ runtimeOption() runtime.Option }

// monitorOptionFunc adapts a config mutation to MonitorOption.
type monitorOptionFunc func(*monitorConfig)

func (f monitorOptionFunc) applyMonitor(c *monitorConfig) { f(c) }

// runtimeOptionWrap adapts an internal runtime.Option to RuntimeOption.
type runtimeOptionWrap struct{ o runtime.Option }

func (w runtimeOptionWrap) runtimeOption() runtime.Option { return w.o }

type monitorConfig struct {
	sink       AlertSink
	threshold  *float64
	window     int
	mode       ScorerMode
	sqlProfile *sqlchan.Profile
	fusion     FusionConfig
}

// ScorerModeOption is the option WithScorerMode returns; it configures both
// NewMonitor and NewRuntime.
type ScorerModeOption struct{ m ScorerMode }

func (s ScorerModeOption) applyMonitor(c *monitorConfig) { c.mode = s.m }
func (s ScorerModeOption) runtimeOption() runtime.Option { return runtime.WithScorerMode(s.m) }

// WithScorerMode selects the HMM scoring kernel: ScorerExact (the default)
// or ScorerTopK(k) for approximate scoring with a reported error bound. The
// returned option is accepted by both NewMonitor and NewRuntime:
//
//	mon := adprom.NewMonitor(prof, adprom.WithScorerMode(adprom.ScorerTopK(8)))
//	rt := adprom.NewRuntime(prof, adprom.WithScorerMode(adprom.ScorerTopK(8)))
func WithScorerMode(m ScorerMode) ScorerModeOption { return ScorerModeOption{m: m} }

// Two-channel detection: the SQL-behaviour channel and score fusion.
type (
	// SQLProfile is a trained SQL-behaviour profile: per-session signature
	// n-grams, result-cardinality distributions, and sensitive-column access
	// sets, calibrated to a per-window log-likelihood threshold the same way
	// the HMM channel is. Train one with TrainSQLProfile.
	SQLProfile = sqlchan.Profile
	// SQLOptions tunes TrainSQLProfile (window length, threshold slack,
	// smoothing, sensitive columns).
	SQLOptions = sqlchan.Options
	// FusionConfig tunes how the HMM and SQL channels' verdicts combine:
	// per-channel weights and the fused OR-escalation slack. The zero value
	// selects equal weights with a 0.05 slack.
	FusionConfig = detect.FusionConfig
)

// Channel provenance names recorded in Alert.Channels / Decision.Channels.
const (
	ChannelHMM   = detect.ChannelHMM
	ChannelSQL   = detect.ChannelSQL
	ChannelFused = detect.ChannelFused
)

// TrainSQLProfile trains the SQL-behaviour detection channel from the same
// collected traces the HMM trains on: each trace's query-bearing calls
// (Call.SQL/Call.Rows) become one training session. sensitiveColumns lists
// column names whose first access by a novel query upgrades an alert to DL;
// it may be empty. Returns sqlchan.ErrNoQueries when the traces carry no
// query data.
func TrainSQLProfile(traces []Trace, opts SQLOptions) (*SQLProfile, error) {
	return sqlchan.Train(traces, opts)
}

// SQLChannelOption is the option WithSQLChannel returns; it configures both
// NewMonitor and NewRuntime.
type SQLChannelOption struct{ p *sqlchan.Profile }

func (s SQLChannelOption) applyMonitor(c *monitorConfig) { c.sqlProfile = s.p }
func (s SQLChannelOption) runtimeOption() runtime.Option { return runtime.WithSQLChannel(s.p) }

// WithSQLChannel attaches the SQL-behaviour detection channel to a monitor
// or runtime: every session scores its query stream against prof alongside
// the HMM, and alerts carry per-channel provenance (Alert.Channels). Without
// this option detection is single-channel and alert histories are unchanged
// bit for bit. Tune the combination rule with WithFusion.
//
//	sqlProf, _ := adprom.TrainSQLProfile(traces, adprom.SQLOptions{})
//	rt := adprom.NewRuntime(prof, adprom.WithSQLChannel(sqlProf))
func WithSQLChannel(p *SQLProfile) SQLChannelOption { return SQLChannelOption{p: p} }

// FusionOption is the option WithFusion returns; it configures both
// NewMonitor and NewRuntime.
type FusionOption struct{ fc FusionConfig }

func (f FusionOption) applyMonitor(c *monitorConfig) { c.fusion = f.fc }
func (f FusionOption) runtimeOption() runtime.Option { return runtime.WithFusion(f.fc) }

// WithFusion tunes the weighted log-linear fusion of the HMM and SQL
// channels (no effect without WithSQLChannel). Zero fields keep the
// documented defaults; a negative EscalationSlack disables fused escalation,
// leaving the pure OR of the per-channel thresholds.
func WithFusion(fc FusionConfig) FusionOption { return FusionOption{fc: fc} }

// WithSink routes the monitor's alerts to sink (the security administrator).
func WithSink(sink AlertSink) MonitorOption {
	return monitorOptionFunc(func(c *monitorConfig) { c.sink = sink })
}

// WithThreshold overrides the profile's selected detection threshold
// (per-symbol log probability).
func WithThreshold(t float64) MonitorOption {
	return monitorOptionFunc(func(c *monitorConfig) { c.threshold = &t })
}

// WithWindowSize overrides the profile's sliding-window length n.
func WithWindowSize(n int) MonitorOption {
	return monitorOptionFunc(func(c *monitorConfig) { c.window = n })
}

// NewMonitor builds the detection phase around a trained profile. With no
// options it uses the profile's threshold and window length and keeps alerts
// in the monitor's history only; nil options are ignored, so the legacy
// NewMonitor(p, nil) spelling still compiles and behaves identically.
func NewMonitor(p *Profile, opts ...MonitorOption) *Monitor {
	var c monitorConfig
	for _, o := range opts {
		if o != nil {
			o.applyMonitor(&c)
		}
	}
	m := core.NewMonitor(p, c.sink)
	if c.window > 0 {
		m.Engine().SetWindowLen(c.window)
	}
	if c.threshold != nil {
		m.Engine().SetThreshold(*c.threshold)
	}
	m.Engine().SetScorerMode(c.mode)
	if c.sqlProfile != nil {
		m.Engine().SetSQLChannel(sqlchan.NewScorer(c.sqlProfile), c.fusion)
	}
	return m
}

// NewRuntime builds a concurrent multi-stream detection runtime over a
// trained profile: sessions obtained from Runtime.Session are scored in
// parallel by a worker pool sharing the profile. Nil options are ignored.
// Close it when done.
func NewRuntime(p *Profile, opts ...RuntimeOption) *Runtime {
	ros := make([]runtime.Option, 0, len(opts))
	for _, o := range opts {
		if o != nil {
			ros = append(ros, o.runtimeOption())
		}
	}
	return runtime.New(p, ros...)
}

// WithWorkers sets the runtime's number of detection workers (default
// GOMAXPROCS).
func WithWorkers(n int) RuntimeOption { return runtimeOptionWrap{runtime.WithWorkers(n)} }

// WithQueueDepth bounds each runtime worker's ingest queue (default 256).
func WithQueueDepth(d int) RuntimeOption { return runtimeOptionWrap{runtime.WithQueueDepth(d)} }

// WithShedConfig replaces the runtime's default backpressure (Observe waits
// for queue space) with risk-aware shedding: under pressure, high-risk
// sessions (recent alerts, drifting scores, sensitive-table touches) are
// always scored and low-risk ones are thinned probabilistically as queues
// fill; shed calls return ErrShed. sc tunes occupancy watermarks, guarantee
// band, risk memories, deterministic seed, and administrator-marked
// sensitive call labels (see NewSensitiveTables / SensitiveLabelsFor for
// deriving those from query signatures). The zero ShedConfig applies the
// documented defaults:
//
//	rt := adprom.NewRuntime(prof, adprom.WithShedConfig(adprom.ShedConfig{Seed: 1}))
func WithShedConfig(sc ShedConfig) RuntimeOption {
	return runtimeOptionWrap{runtime.WithShedConfig(sc)}
}

// WithSessionSink routes every runtime session's alerts to fn, tagged with
// the session id, each alert once. Delivery is asynchronous and isolated: fn
// runs on a dedicated sink goroutine (never on detection workers) that
// drains a bounded buffer, panics inside it are recovered and counted, and
// alerts that find the buffer full are shed and counted rather than
// stalling detection.
func WithSessionSink(fn func(session string, a Alert)) RuntimeOption {
	return runtimeOptionWrap{runtime.WithAlertFunc(runtime.AlertFunc(fn))}
}

// WithSinkBuffer bounds the runtime's asynchronous alert-delivery queue
// (default 1024). An alert that fits waits there for the sink; when the sink
// cannot keep up, overflowing alerts are shed and counted in
// RuntimeStats.SinkDropped, and detection itself never blocks on the sink.
func WithSinkBuffer(n int) RuntimeOption { return runtimeOptionWrap{runtime.WithSinkBuffer(n)} }

// WithJudgeHook installs a hook observing every completed window judgement
// (session id, window end sequence, score, flagged). A non-nil error
// quarantines that session — Observe/Flush return ErrSessionFailed — without
// affecting other sessions. The hook runs on worker goroutines and must be
// safe for concurrent use.
func WithJudgeHook(fn JudgeHook) RuntimeOption { return runtimeOptionWrap{runtime.WithJudgeHook(fn)} }

// WithLogger routes the runtime's structured events (worker restarts, session
// quarantines, profile swaps) to l as slog records. Nil leaves event logging
// off; the hot path is never logged.
func WithLogger(l *slog.Logger) RuntimeOption { return runtimeOptionWrap{runtime.WithLogger(l)} }

// WithDecisionLog sizes the runtime's decision-provenance log. Capacity
// applies per class: the newest capacity sampled unflagged judgements and
// the newest capacity alerts are retained (default 1024 each; negative
// disables provenance entirely), with unflagged judgements sampled
// one-in-sampleEvery (default 16; 1 records every judgement). Alerts are
// always recorded and only newer alerts evict them. Retrieve records with
// Runtime.Decisions or the introspection endpoint's /decisions.
func WithDecisionLog(capacity, sampleEvery int) RuntimeOption {
	return runtimeOptionWrap{runtime.WithDecisionLog(capacity, sampleEvery)}
}

// WithTracing enables end-to-end decision tracing: every observe op gets a
// trace whose spans cover shed admission, engine scoring (with per-channel
// judgement and fusion spans on flagged windows), and async sink delivery.
// The runtime retains up to capacity healthy traces (sampled one-in-
// sampleEvery) plus up to capacity alert traces (always kept); capacity ≤ 0
// leaves tracing off, with zero hot-path cost and a decision log
// bit-identical to a trace-free build. Retrieve traces with Runtime.Traces /
// Runtime.TraceByID, the introspection endpoint's /traces routes, or render
// one with `adprom explain`.
func WithTracing(capacity, sampleEvery int) RuntimeOption {
	return runtimeOptionWrap{runtime.WithTracing(capacity, sampleEvery)}
}

// DecisionTrace is one completed end-to-end decision trace: a root ingest or
// observe span plus child spans for each pipeline stage the op crossed.
type DecisionTrace = trace.Trace

// TraceSpan is one completed pipeline stage within a DecisionTrace.
type TraceSpan = trace.Span

// TraceContext carries wire-level trace metadata (client trace ID, decode
// time, remote, codec) into Runtime.BeginTrace.
type TraceContext = trace.Context

// NewIntrospectionHandler builds the live introspection endpoint for a
// runtime: GET /metrics (Prometheus text format, including the lifecycle
// manager's counters when lc is non-nil), /decisions (recent provenance as
// JSON, ?limit=N), /traces and /traces/{id} (retained decision traces as
// JSON when WithTracing is on), /healthz and /readyz (200/503 probes), and
// the net/http/pprof suite under /debug/pprof/. Serve it on a private
// address:
//
//	go http.ListenAndServe("localhost:9313", adprom.NewIntrospectionHandler(rt, nil))
func NewIntrospectionHandler(rt *Runtime, lc *Lifecycle) http.Handler {
	cfg := rt.Introspection()
	if lc != nil {
		cfg.Metrics = func(w io.Writer) error {
			if err := rt.WritePrometheus(w); err != nil {
				return err
			}
			return obsv.WriteLifecycleProm(w, lc.Stats())
		}
	}
	return obsv.NewHandler(cfg)
}

// NewLifecycle builds a profile-lifecycle manager; wire it into a runtime
// with WithLifecycle, then Start it:
//
//	mgr := adprom.NewLifecycle(adprom.LifecycleConfig{})
//	rt := adprom.NewRuntime(prof, adprom.WithLifecycle(mgr))
//	mgr.Start()
//	defer mgr.Stop()
//
// Feed judged-Normal traces to mgr.RecordTrace; when the drift watcher
// confirms the served profile has gone stale, the manager retrains in the
// background and hot-swaps the next generation in with zero downtime.
func NewLifecycle(cfg LifecycleConfig) *Lifecycle { return lifecycle.NewManager(cfg) }

// WithLifecycle binds a lifecycle manager to the runtime under construction:
// the manager's drift watcher taps every completed window judgement, and a
// confirmed drift verdict leads to a background retrain and a
// Runtime.SwapProfile. One manager manages one runtime.
func WithLifecycle(m *Lifecycle) RuntimeOption {
	if m == nil {
		return nil
	}
	return runtimeOptionWrap{runtime.Options(
		runtime.WithJudgeObserver(m.Observe),
		runtime.WithAttach(m.Bind),
	)}
}

// OpenProfileRegistry opens (creating if needed) the versioned profile store
// rooted at dir: one file per published generation plus a manifest, all
// written atomically.
func OpenProfileRegistry(dir string) (*ProfileRegistry, error) {
	return lifecycle.OpenRegistry(dir)
}

// LoadProfile reads a profile saved with Profile.Save, accepting both the
// current versioned format and legacy headerless streams. Corrupt input
// fails with ErrCorruptProfile, a newer format with ErrIncompatibleProfile.
func LoadProfile(r io.Reader) (*Profile, error) { return profile.Load(r) }

// NewCollector returns a calls collector for the given mode; attach it with
// Interp.AddHook(c.Hook()).
func NewCollector(mode Mode) *collector.Collector { return collector.New(mode, nil) }

// Bundled applications of the paper's CA-dataset (Table III).
func HospitalApp() *App    { return dataset.AppH() }
func BankingApp() *App     { return dataset.AppB() }
func SupermarketApp() *App { return dataset.AppS() }

// SIRApps returns the four SIR-style programs of Table IV.
func SIRApps() []*App { return dataset.SIRApps() }

// BankingAttacks returns the five Table V attacks against the banking app.
func BankingAttacks() []Attack { return attack.AppBAttacks() }

// SQLChannelBankingAttacks returns the three HMM-evading adversaries of the
// two-channel corpus — low-and-slow exfiltration, cardinality mimicry, and
// UNION exfiltration — each engineered to keep the call trace inside the
// trained distribution so only the SQL-behaviour channel can flag it.
func SQLChannelBankingAttacks() []Attack { return attack.SQLChannelAttacks() }

// TautologyPayload is the SQL-injection input of attack 5.
const TautologyPayload = attack.TautologyPayload

// QueryAuditor is the §VII query-signature mitigation: it learns the
// signatures of normal queries (and their issuing sites) and flags queries
// whose shape or site was never seen — catching same-selectivity query swaps
// that leave the call trace unchanged.
type QueryAuditor = qsig.Auditor

// NewQueryAuditor returns an empty query-signature auditor; feed it
// World.Queries from training runs via Learn and check later runs with
// Check.
func NewQueryAuditor() *QueryAuditor { return qsig.NewAuditor() }

// SensitiveTables is a set of table names whose queries mark a session as
// touching sensitive data; the risk-aware admission controller keeps such
// sessions out of the shed pool.
type SensitiveTables = qsig.SensitiveTables

// NewSensitiveTables builds a sensitive-table set from names
// (case-insensitive).
func NewSensitiveTables(names ...string) SensitiveTables {
	return qsig.NewSensitiveTables(names...)
}

// SensitiveLabelsFor derives the call labels that issued queries against
// sensitive tables from a training run's query log (World.Queries); the
// result plugs into ShedConfig.SensitiveLabels.
func SensitiveLabelsFor(records []interp.QueryRecord, tables SensitiveTables) map[string]bool {
	return qsig.SensitiveLabels(records, tables)
}
