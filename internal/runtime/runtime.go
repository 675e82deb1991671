// Package runtime multiplexes many concurrent per-session library-call
// streams onto a pool of detection workers sharing one Profile — the serving
// layer that turns the paper's one-program Detection Engine into a system
// that can monitor heavy traffic from many clients at once.
//
// # Model
//
//   - A Runtime owns W workers. Each worker owns one bounded ingest queue
//     and runs detection for the sessions assigned to it.
//   - A Session is one monitored call stream (one program execution, one
//     connection, one tenant — whatever the caller keys it by). Sessions are
//     created on first use by Runtime.Session(id) and pinned to a worker by
//     hashing the id, so every session's calls are processed in FIFO order
//     with no per-call locking; different sessions proceed in parallel.
//   - Each session scores windows with a detect.Engine over the shared
//     read-only profile. Engines maintain the HMM forward variables
//     incrementally (hmm.StreamScorer) and are recycled through a sync.Pool
//     when sessions close, so steady-state session churn does not allocate.
//   - Ingest queues are bounded. Under pressure a runtime either applies
//     backpressure (the default — Observe waits for queue space) or, with
//     WithShedConfig, sheds by session risk: an admission controller keyed
//     to queue occupancy thins low-risk sessions probabilistically while
//     sessions with recent alerts, drifting scores, or sensitive-data
//     touches are always scored. See the internal/shed package doc for the
//     risk model, hysteresis, and the estimated-miss-probability metric.
//   - Close flushes every open session (judging partial windows, like
//     Engine.Flush), waits for the workers to drain, and stops them.
//
// # Failure model
//
// The runtime is designed to keep monitoring when individual components
// misbehave:
//
//   - Worker supervision. Every op runs under panic recovery. A recovered
//     panic quarantines only the offending session: its pending control ops
//     get an error reply, subsequent ops return ErrSessionFailed (the cause
//     is available via Session.Err), and the worker keeps serving its other
//     sessions. If the worker goroutine itself dies (a panic outside the
//     per-op recovery), a supervisor restarts it with capped exponential
//     backoff; restarts surface in Stats.WorkerRestarts.
//   - Deadline-aware ingest. ObserveContext, FlushContext, ObserveTraceContext,
//     Session.CloseContext and Runtime.CloseContext bound queue
//     backpressure and shutdown drain by the caller's context instead of
//     hanging forever; the plain forms are context.Background wrappers.
//   - Sink isolation. Alerts reach the user's AlertFunc through a bounded
//     buffer drained by one delivery goroutine under panic recovery. A
//     worker never waits for the sink: an alert that finds the buffer full
//     is shed and counted, and that is the only place an alert is shed.
//     Sink failures appear in Stats.SinkPanics and shed deliveries in
//     Stats.SinkDropped.
//
// # Profile generations and hot-swap
//
// The serving profile is versioned: the runtime starts at generation 1 and
// SwapProfile atomically publishes the next profile — in a fleet, a
// generation published into the tenant's lineage (tenant.Registry.Watch) —
// as generation N+1 with zero downtime. The swap protocol keeps detection
// correct without any locking on the hot path:
//
//   - Each session's engine is tagged with the generation it was built over.
//     In-flight windows always finish scoring against that generation — an
//     engine is never rebound mid-stream.
//   - Sessions upgrade at trace boundaries only: when a Flush (or
//     ObserveTrace completing) resets the sliding window and a newer
//     generation exists, the worker retires the session's engine, builds one
//     over the new profile, and carries the sequence counter and
//     sensitive-touch count over (detect.Engine.Adopt); the flush has just
//     handed the old engine's alerts over. Every window therefore scores
//     entirely on exactly one generation.
//   - Pooled engines are invalidated by generation: a recycled engine whose
//     generation is stale is discarded (counted in Stats.EnginesRetired)
//     instead of being reused against the wrong model.
//
// Atomic counters (calls, drops, alerts by flag, queue depth, per-call
// latency, panics, restarts, quarantines, sink losses, swaps, retired
// engines) are kept in a metrics.Counters and exposed as a Stats snapshot.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"log/slog"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"adprom/internal/collector"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/metrics"
	"adprom/internal/obsv"
	"adprom/internal/profile"
	"adprom/internal/retain"
	"adprom/internal/shed"
	"adprom/internal/sqlchan"
	"adprom/internal/trace"
)

// Errors returned by the ingest path.
var (
	// ErrClosed reports an Observe/Flush on a closed runtime or session.
	ErrClosed = errors.New("runtime: closed")
	// ErrSessionFailed reports an op on a quarantined session — one whose
	// engine, judge observer, or worker panicked while processing its stream;
	// a panic is the only way a session fails. The quarantine cause is
	// attached to the returned error and available via Session.Err; other
	// sessions are unaffected. Close a failed session to release its slot.
	ErrSessionFailed = errors.New("runtime: session failed")
	// ErrShed reports a call the risk-aware admission controller (see
	// WithShedConfig) rejected instead of queueing it. Every queue-full
	// rejection wraps it.
	ErrShed = errors.New("runtime: call shed: risk-aware admission")
)

// BatchShedError reports a multi-call batch that was partially or fully
// rejected (a single call is rejected with the plain ErrShed): Shed of Batch
// calls were not enqueued (the admitted prefix, if any, is already queued in
// order). It unwraps to ErrShed; callers that need exact accounting read the
// counts with errors.As.
type BatchShedError struct {
	// Shed is how many of the batch's Batch calls were rejected; the first
	// Batch−Shed calls were admitted.
	Shed  int
	Batch int
}

func (e *BatchShedError) Error() string {
	return fmt.Sprintf("%v (%d of %d batch calls shed)", ErrShed, e.Shed, e.Batch)
}

func (e *BatchShedError) Unwrap() error { return ErrShed }

// Supervised worker restarts back off exponentially from restartBackoffBase,
// doubling per consecutive crash up to restartBackoffCap.
const (
	restartBackoffBase = time.Millisecond
	restartBackoffCap  = 100 * time.Millisecond
)

// AlertFunc receives every alert raised by any session, tagged with the
// session id. Delivery is asynchronous: workers put alerts in a bounded
// buffer, so a slow or panicking implementation cannot stall detection — it
// only lets the buffer fill, so that further alerts are shed (counted in
// Stats.SinkDropped), or has its panics counted (Stats.SinkPanics).
// Implementations are invoked from a single delivery goroutine, one alert at
// a time.
type AlertFunc func(session string, a detect.Alert)

// JudgeObserver passively observes every completed HMM-window judgement of
// every session: the session id, the window's closing sequence number, the
// op's clock capture, its per-symbol score, and whether it was flagged. It
// cannot veto a judgement; a panic inside it counts as an engine panic and
// quarantines the session whose judgement it was observing. It runs on
// worker goroutines, must be cheap, and must be safe for concurrent use —
// benchmark instrumentation and test fault injection are its consumers. at
// is the op's single clock capture: the worker reads time.Now once per
// observed call and threads the same timestamp through the latency
// histogram, the provenance Decision, and every observer, so downstream
// samplers never re-read the clock on the hot path.
type JudgeObserver func(session string, seq int, at time.Time, score float64, flagged bool)

// WorkerHook runs on the worker goroutine before each op, *outside* the
// per-op panic recovery: a panic here kills the worker itself, exercising
// supervised restart. It exists for fault injection and latency injection in
// chaos tests; production configurations should leave it nil.
type WorkerHook func(worker int, session string)

type config struct {
	workers       int
	queueDepth    int
	sink          AlertFunc
	sinkBuffer    int
	observer      JudgeObserver
	workerHook    WorkerHook
	scorerMode    hmm.ScorerMode
	logger        *slog.Logger
	decisionCap   int
	decisionEvery int
	shedCfg       *shed.Config
	sqlProfile    *sqlchan.Profile
	fusion        detect.FusionConfig
	traceCap      int
	traceEvery    int
}

// Option configures a Runtime.
type Option func(*config)

// WithWorkers sets the number of detection workers (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithQueueDepth bounds each worker's ingest queue (default 256).
func WithQueueDepth(d int) Option {
	return func(c *config) {
		if d > 0 {
			c.queueDepth = d
		}
	}
}

// WithShedConfig replaces backpressure with risk-aware shedding: when a
// worker's queue saturates, low-risk sessions are thinned probabilistically
// (deterministically, given shed.Config.Seed) while sessions with recent
// alerts, drifting scores, or sensitive-data touches are always scored —
// with blocking backpressure if necessary. Rejected calls return ErrShed
// and are counted in Stats.Shed. sc tunes the controller — watermarks,
// guarantee band, risk-signal memories, seed, sensitive labels (see
// shed.Config); zero fields keep their documented defaults.
func WithShedConfig(sc shed.Config) Option {
	return func(c *config) { c.shedCfg = &sc }
}

// WithAlertFunc routes every session's alerts to fn through the async sink
// buffer.
func WithAlertFunc(fn AlertFunc) Option {
	return func(c *config) { c.sink = fn }
}

// WithSinkBuffer bounds the async sink's buffer (default 1024). An alert
// that fits waits there for the sink however slow it is; when the buffer is
// full, further alerts are shed and counted in Stats.SinkDropped rather than
// blocking workers.
func WithSinkBuffer(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.sinkBuffer = n
		}
	}
}

// WithJudgeObserver installs fn as a passive tap on every session's
// completed HMM-window judgements; see JudgeObserver.
func WithJudgeObserver(fn JudgeObserver) Option {
	return func(c *config) { c.observer = fn }
}

// WithLogger installs a structured event logger: worker restarts, session
// quarantines, and profile swaps — state transitions that were previously
// silent — are emitted as slog records. The logger is never called on the
// per-call hot path; nil (the default) disables event logging entirely.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// WithDecisionLog sizes the decision-provenance log, per class: the runtime
// retains the newest capacity sampled unflagged judgements and the newest
// capacity alerts (default 1024 each), sampling one in sampleEvery
// unflagged judgements (default 16). capacity < 0 disables provenance
// entirely, 0 keeps the default; sampleEvery 1 records every judgement,
// ≤ 0 keeps the default. Read the log with Runtime.Decisions.
func WithDecisionLog(capacity, sampleEvery int) Option {
	return func(c *config) {
		if capacity != 0 {
			c.decisionCap = capacity
		}
		if sampleEvery > 0 {
			c.decisionEvery = sampleEvery
		}
	}
}

// WithTracing enables end-to-end decision tracing: every observe op builds a
// trace (root span, shed admission, engine scoring with per-channel judgement
// and fusion spans, async sink delivery) and the runtime retains up to
// capacity healthy traces plus up to capacity alert traces, sampling one in
// sampleEvery healthy traces at commit while always keeping alert-bearing
// ones — the same retention policy as the decision log. capacity ≤ 0 (the
// default) disables tracing entirely: no trace is ever built, the hot path
// only pays a nil check, and the decision log stays bit-identical to a
// trace-free build. sampleEvery ≤ 1 keeps every healthy trace. Read traces
// with Runtime.Traces / Runtime.TraceByID or the /traces endpoints.
func WithTracing(capacity, sampleEvery int) Option {
	return func(c *config) {
		c.traceCap = capacity
		c.traceEvery = sampleEvery
	}
}

// WithWorkerHook installs fn on the worker loop; see WorkerHook. Test-only.
func WithWorkerHook(fn WorkerHook) Option {
	return func(c *config) { c.workerHook = fn }
}

// WithSQLChannel attaches the SQL-behaviour detection channel: every session
// engine gets its own sqlchan.Scorer over the trained profile, judged
// alongside the HMM under the configured fusion rule (see WithFusion; the
// default is equal weights with a 0.05 escalation slack). Pass nil to keep
// the runtime single-channel.
func WithSQLChannel(p *sqlchan.Profile) Option {
	return func(c *config) { c.sqlProfile = p }
}

// WithFusion tunes the channel-fusion rule applied when an SQL channel is
// attached (no effect without WithSQLChannel). Zero fields keep the
// documented detect.FusionConfig defaults.
func WithFusion(fc detect.FusionConfig) Option {
	return func(c *config) { c.fusion = fc }
}

// WithScorerMode selects the HMM scoring kernel every session's engine runs:
// hmm.ScorerExact (the default, bit-identical to the batch forward pass) or
// hmm.ScorerTopK(k), which prunes each transition row to its k largest
// entries and attaches a sound per-window error bound to every alert
// (detect.Alert.ScoreErrorBound).
func WithScorerMode(m hmm.ScorerMode) Option {
	return func(c *config) { c.scorerMode = m }
}

// generation is one immutable (profile, version) pair. The runtime's current
// generation is published through an atomic pointer; workers read it without
// locking and never mutate it.
type generation struct {
	p   *profile.Profile
	gen uint64
}

// pooledEngine tags a recycled detect.Engine with the generation it was built
// over, so the pool never hands an engine bound to a superseded profile to a
// new session.
type pooledEngine struct {
	gen uint64
	e   *detect.Engine
}

// Runtime is a concurrent multi-stream detection service over one shared
// profile. Create with New, feed with Session(...).Observe, stop with Close.
// SwapProfile replaces the serving profile atomically; see the package doc's
// hot-swap section for the generation protocol.
type Runtime struct {
	cur  atomic.Pointer[generation]
	cfg  config
	seed maphash.Seed

	queues []chan op
	wg     sync.WaitGroup

	// pending tracks the calls offered to each worker and not yet dequeued —
	// the call-granularity ledger behind partial batch admission, the
	// per-worker depth gauges, and the shed controller's occupancy signal.
	// Producers add on enqueue; the worker (or the shutdown drain) subtracts
	// on dequeue.
	pending []atomic.Int64

	// shed is the risk-aware admission controller, non-nil only under
	// WithShedConfig.
	shed *shed.Controller

	// stopped is closed when workers must abandon ingest (shutdown); senders
	// and reply-waiters select on it so nothing hangs past Close.
	stopped  chan struct{}
	stopOnce sync.Once
	closeMu  sync.Mutex // serialises Close/CloseContext

	mu       sync.RWMutex // guards sessions map and draining/closed flags
	sessions map[string]*Session
	draining bool // no new session registrations (Close has begun)
	closed   bool // no ingest at all

	// Async sink pipeline (nil alertq when no sink is configured): workers
	// enqueue into alertq without blocking, and one delivery goroutine
	// drains it into the user sink under panic recovery.
	alertq chan alertMsg
	sinkWG sync.WaitGroup

	pool      sync.Pool // *pooledEngine, each tagged with its generation
	ctr       metrics.Counters
	decisions *retain.Log[obsv.Decision] // decision provenance; nil when disabled
	traces    *trace.Store               // decision traces; nil when tracing is disabled
	// opTraces holds one slot per worker for the op it is scoring (nil when
	// tracing is disabled): a session is pinned to one worker, and a worker
	// scores one op at a time.
	opTraces []opTrace
}

type alertMsg struct {
	session string
	alert   detect.Alert
	// gen and ta carry the judging generation and the op's live trace into
	// the async sink pipeline; ta holds one reference, released after the
	// sink span is recorded (or the delivery is shed).
	gen uint64
	ta  *trace.Active
}

type opKind int

const (
	opObserve opKind = iota // score the op's calls in order
	opFlush                 // judge partial window, hand over pending alerts, reset window
	opClose                 // opFlush + recycle the engine
)

type reply struct {
	alerts []detect.Alert
	err    error
}

type op struct {
	s *Session
	// An observe op carries a single call inline (call, calls nil), so
	// per-call ingest allocates nothing, or an owned copy of a multi-call
	// batch (calls).
	call    collector.Call
	calls   []collector.Call
	kind    opKind
	done    chan reply // buffered(1); at most one send (guarded by replied)
	replied bool
	// ta is the op's live decision trace (nil when tracing is off). Ownership
	// transfers to the worker once the op is enqueued; finishTrace closes it
	// exactly once on whichever path ends the op.
	ta *trace.Active
}

func (o *op) reply(r reply) {
	if o.done != nil && !o.replied {
		o.replied = true
		o.done <- r
	}
}

// finishTrace closes the op's trace exactly once (idempotent through the
// cleared pointer), so normal completion, shutdown drain, and crash-recovery
// paths never double-finish.
func (o *op) finishTrace() {
	if o.ta != nil {
		o.ta.Finish()
		o.ta = nil
	}
}

// callCount returns how many monitored calls the op carries (0 for control
// ops) — the unit Dropped counts in.
func (o *op) callCount() uint64 {
	switch {
	case o.kind != opObserve:
		return 0
	case o.calls != nil:
		return uint64(len(o.calls))
	default:
		return 1
	}
}

// Session is one monitored call stream. All its calls are scored in FIFO
// order on a single worker; the handle itself may be shared, but calls from
// multiple goroutines into one session interleave without ordering
// guarantees (use one producer per session for deterministic replay).
type Session struct {
	rt     *Runtime
	id     string
	worker int

	mu      sync.Mutex
	closed  bool
	failure error // ErrSessionFailed wrapping the quarantine cause

	// engine, gen, dead, and opTime are owned by the worker goroutine: engine
	// is created on first op (over the then-current generation, recorded in
	// gen), dead is set once the close op has been processed, and opTime is
	// the single clock capture of the op currently being processed — the one
	// timestamp shared by the latency histogram, the judge observer, and the
	// provenance Decision record.
	engine *detect.Engine
	gen    uint64
	dead   bool
	opTime time.Time

	// lastGen mirrors gen for readers outside the worker: it is stored by the
	// worker before each op is scored, so after a synchronous Flush returns,
	// Generation reports the generation that scored the flushed trace.
	lastGen atomic.Uint64

	// risk is the session's shed-tier state (nil unless the runtime sheds
	// by risk). sensSeen is the engine's sensitive-touch count already
	// folded into risk — worker-owned, like engine.
	risk     *shed.SessionRisk
	sensSeen int
}

// opTrace is a worker's tracing state for the op it is scoring: the op's
// live trace (nil for an untraced op), the span ID of its engine-scoring
// span (the parent of per-channel judgement spans), how many judgement
// spans the op has emitted, how many windows it has judged, and each
// channel's latest judgement (Channel "" until that channel judges).
type opTrace struct {
	ta        *trace.Active
	scoreSpan uint64
	spans     int
	windows   int
	hmm, sql  detect.Judgement
}

// maxJudgementSpans caps the full score.<channel>/fusion spans one op may
// emit. The first flagged windows of an op get complete judgement spans;
// later ones still fold into the score summary (and each still records its
// own alert Decision), so an alert-dense batch costs bounded span
// construction instead of one allocation per flagged window.
const maxJudgementSpans = 4

// note folds one judgement into the op's score summary; only the op's first
// maxJudgementSpans flagged judgements get full per-channel spans, so an
// alert-dense batch cannot blow the span cap.
func (t *opTrace) note(j detect.Judgement) {
	t.windows++
	if j.Channel == detect.ChannelHMM {
		t.hmm = j
	} else {
		t.sql = j
	}
	if !j.Flagged || t.spans >= maxJudgementSpans {
		return
	}
	t.spans++
	now := time.Now()
	t.ta.Event(t.scoreSpan, judgementStage(j.Channel), now,
		trace.Int("seq", int64(j.Seq)),
		trace.Float("score", j.Score),
		trace.Float("threshold", j.Threshold),
		trace.Float("margin", j.Threshold-j.Score),
		trace.Float("score_error_bound", j.Bound),
		trace.Bool("flagged", true))
	if j.FusedFired || (j.HMMSeen && j.SQLSeen) {
		t.ta.Event(t.scoreSpan, "fusion", now,
			trace.Float("fused_score", j.Fused),
			trace.Float("hmm_margin", j.HMMMargin),
			trace.Float("sql_margin", j.SQLMargin),
			trace.Bool("escalated", j.FusedFired))
	}
}

// Generation reports the profile generation that scored the session's most
// recently processed op (0 before any call reached the worker). Because
// sessions only change generation at trace boundaries, the value read after a
// Flush returns names the single generation that scored the whole trace.
func (s *Session) Generation() uint64 { return s.lastGen.Load() }

// ShedCalls reports how many of this session's calls the risk-aware
// admission controller has rejected so far (always 0 without
// WithShedConfig).
func (s *Session) ShedCalls() uint64 {
	if s.risk == nil {
		return 0
	}
	return s.risk.ShedCalls()
}

// New builds a runtime over a trained profile. The profile becomes generation
// 1 and is treated as immutable from this point on: put a newly trained
// profile live through SwapProfile, never by mutating a served profile in
// place.
func New(p *profile.Profile, opts ...Option) *Runtime {
	cfg := config{
		workers:       stdruntime.GOMAXPROCS(0),
		queueDepth:    256,
		sinkBuffer:    1024,
		decisionCap:   1024,
		decisionEvery: 16,
	}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	rt := &Runtime{
		cfg:       cfg,
		seed:      maphash.MakeSeed(),
		queues:    make([]chan op, cfg.workers),
		pending:   make([]atomic.Int64, cfg.workers),
		sessions:  make(map[string]*Session),
		stopped:   make(chan struct{}),
		decisions: retain.NewLog[obsv.Decision](cfg.decisionCap, cfg.decisionEvery),
		traces:    trace.NewStore(cfg.traceCap, cfg.traceEvery),
	}
	if cfg.shedCfg != nil {
		rt.shed = shed.New(*cfg.shedCfg, cfg.workers)
	}
	if rt.traces.Enabled() {
		rt.opTraces = make([]opTrace, cfg.workers)
	}
	rt.cur.Store(&generation{p: p, gen: 1})
	rt.pool.New = func() any {
		g := rt.cur.Load()
		return &pooledEngine{gen: g.gen, e: detect.NewEngine(g.p)}
	}
	// Force the shared scorer for the configured mode into existence before
	// any worker races to use it (Profile.ScorerFor caches per mode anyway;
	// this keeps first-call latency out of the serving path).
	p.ScorerFor(cfg.scorerMode)
	if cfg.sink != nil {
		rt.alertq = make(chan alertMsg, cfg.sinkBuffer)
		rt.sinkWG.Add(1)
		go rt.deliverLoop()
	}
	for i := range rt.queues {
		rt.queues[i] = make(chan op, cfg.queueDepth)
		rt.wg.Add(1)
		go rt.supervise(i)
	}
	return rt
}

// Profile returns the profile currently serving (the newest generation).
// Sessions mid-trace may still be scoring against an older one.
func (rt *Runtime) Profile() *profile.Profile { return rt.cur.Load().p }

// Generation returns the current profile generation number, starting at 1 and
// incremented by every successful SwapProfile.
func (rt *Runtime) Generation() uint64 { return rt.cur.Load().gen }

// SwapProfile atomically publishes next as the new serving profile and
// returns its generation number. The swap is zero-downtime: no ingest is
// paused, in-flight windows finish scoring against the generation they
// started on, and each session upgrades (keeping its sequence numbering) at
// its next trace boundary. The next profile must be trained and must use the
// same window length discipline as its predecessor's consumers expect; a nil
// profile or one without a model is rejected. Safe for concurrent use with
// ingest and with other SwapProfile calls.
func (rt *Runtime) SwapProfile(next *profile.Profile) (uint64, error) {
	if next == nil || next.Model == nil {
		return 0, errors.New("runtime: SwapProfile: profile is nil or untrained")
	}
	rt.mu.RLock()
	closed := rt.closed
	rt.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	// Materialise the read-only scoring view before publication so the first
	// session to upgrade does not pay for it on the serving path.
	next.ScorerFor(rt.cfg.scorerMode)
	for {
		old := rt.cur.Load()
		g := &generation{p: next, gen: old.gen + 1}
		if rt.cur.CompareAndSwap(old, g) {
			rt.ctr.AddSwap()
			if l := rt.cfg.logger; l != nil {
				l.Info("profile swapped",
					"generation", g.gen,
					"threshold", next.Threshold,
					"window_len", next.WindowLen)
			}
			return g.gen, nil
		}
	}
}

// Session returns the session registered under id, creating it if needed.
// Once Close has begun (the runtime is draining) new ids are refused: the
// returned session is already closed and every op on it reports ErrClosed.
func (rt *Runtime) Session(id string) *Session {
	rt.mu.RLock()
	s := rt.sessions[id]
	rt.mu.RUnlock()
	if s != nil {
		return s
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s = rt.sessions[id]; s != nil {
		return s
	}
	var h maphash.Hash
	h.SetSeed(rt.seed)
	h.WriteString(id)
	s = &Session{rt: rt, id: id, worker: int(h.Sum64() % uint64(len(rt.queues)))}
	if rt.shed != nil {
		s.risk = rt.shed.NewSession(id)
	}
	if rt.draining || rt.closed {
		s.closed = true
		return s
	}
	rt.sessions[id] = s
	rt.ctr.SessionOpened()
	return s
}

// LookupSession returns the session registered under id without creating
// one — the non-allocating existence probe quota enforcement (the tenant
// router's per-tenant session cap) needs before deciding whether a Session
// call would admit a new stream.
func (rt *Runtime) LookupSession(id string) (*Session, bool) {
	rt.mu.RLock()
	s := rt.sessions[id]
	rt.mu.RUnlock()
	return s, s != nil
}

// ActiveSessions reports how many sessions are currently registered — a
// single atomic load, safe on the ingest hot path (Stats carries the same
// gauge but pays for full histogram snapshots).
func (rt *Runtime) ActiveSessions() int64 { return rt.ctr.ActiveSessions() }

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Err reports why the session was quarantined (an error wrapping
// ErrSessionFailed), or nil while the session is healthy.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}

// quarantine records the session's first failure cause; reports whether this
// call was the one that quarantined it.
func (s *Session) quarantine(cause error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return false
	}
	s.failure = fmt.Errorf("%w: %v", ErrSessionFailed, cause)
	return true
}

// Observe enqueues one call for detection: a batch of one. It waits for
// queue space (backpressure) unless the runtime sheds by risk, when a full
// queue may shed the call and return ErrShed. A closed session or runtime
// returns ErrClosed; a quarantined session returns ErrSessionFailed.
func (s *Session) Observe(c collector.Call) error {
	return s.ObserveContext(context.Background(), c)
}

// ObserveContext is Observe bounded by ctx: backpressure waits no longer
// than the context allows and surfaces ctx.Err().
func (s *Session) ObserveContext(ctx context.Context, c collector.Call) error {
	return s.ObserveBatchTraced(ctx, nil, []collector.Call{c})
}

// ObserveBatch enqueues a run of calls as one op, scored in call order on
// the session's worker (detect.Engine.ObserveBatch) and raising exactly the
// alerts per-call Observes would. It is the preferred ingest form for replay
// and any producer that naturally batches: it pays the queue hand-off and
// the per-op bookkeeping once per batch. The calls slice is copied; the
// caller may reuse it immediately. Under risk-aware shedding a saturated
// queue admits the batch prefix that fits the worker's call budget and, for
// sessions outside the guarantee band, sheds the tail: for a multi-call
// batch the error is a *BatchShedError wrapping ErrShed whose Shed/Batch
// fields report the exact counts.
func (s *Session) ObserveBatch(calls []collector.Call) error {
	return s.ObserveBatchContext(context.Background(), calls)
}

// ObserveBatchContext is ObserveBatch bounded by ctx.
func (s *Session) ObserveBatchContext(ctx context.Context, calls []collector.Call) error {
	return s.ObserveBatchTraced(ctx, nil, calls)
}

// ObserveBatchTraced is ObserveBatchContext under an externally opened
// decision trace (see Runtime.BeginTrace), and the one observe path every
// other Observe form wraps. The network ingest and tenant routing layers
// open the trace before routing so its root span covers decode and routing,
// then hand it to the session here. The session takes ownership of ta on
// every path — a batch rejected before reaching a worker finishes the trace
// immediately, an admitted one is finished by the worker after scoring (and
// after any async sink deliveries it holds references for). With ta nil the
// session opens the op's own trace (when tracing is on) once it accepts the
// calls. The calls become one op: a single call inline, a longer run as an
// owned copy.
func (s *Session) ObserveBatchTraced(ctx context.Context, ta *trace.Active, calls []collector.Call) error {
	if len(calls) == 0 {
		ta.Finish()
		return nil
	}
	if err := s.ingestErr(); err != nil {
		ta.Finish()
		return err
	}
	if ta == nil {
		ta = s.rt.traces.Begin(trace.Context{}, s.id, "observe")
	}
	o := op{s: s, kind: opObserve, ta: ta}
	if len(calls) == 1 {
		o.call = calls[0]
	} else {
		o.calls = make([]collector.Call, len(calls))
		copy(o.calls, calls)
	}
	return s.rt.enqueue(ctx, s.worker, o, false)
}

func (s *Session) ingestErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return s.failure
	}
	if s.closed {
		return ErrClosed
	}
	return nil
}

// ObserveTrace replays one whole collected execution through the session and
// returns the alerts raised since the previous flush, the trace's final
// short window judged — the concurrent counterpart of Monitor.ObserveTrace,
// which returns its whole history instead. The session stays open for
// further traces.
//
// Calls shed by a full queue truncate the replay: the alerts are still
// returned, together with an error wrapping ErrShed that reports how many of
// the trace's calls were shed, so callers can tell a truncated replay from a
// complete one. Any other ingest error aborts the replay.
func (s *Session) ObserveTrace(tr collector.Trace) ([]detect.Alert, error) {
	return s.ObserveTraceContext(context.Background(), tr)
}

// ObserveTraceContext is ObserveTrace bounded by ctx.
func (s *Session) ObserveTraceContext(ctx context.Context, tr collector.Trace) ([]detect.Alert, error) {
	shedCalls := 0
	for _, c := range tr {
		switch err := s.ObserveContext(ctx, c); {
		case err == nil:
		case errors.Is(err, ErrShed):
			shedCalls++
		default:
			return nil, err
		}
	}
	alerts, err := s.FlushContext(ctx)
	if err != nil {
		return alerts, err
	}
	if shedCalls > 0 {
		return alerts, fmt.Errorf("%w (%d of %d trace calls shed)", ErrShed, shedCalls, len(tr))
	}
	return alerts, nil
}

// Flush waits for every call enqueued so far to be scored, judges a pending
// short window (a stream shorter than the window length), resets the sliding
// window so the next trace starts clean, and returns the alerts raised since
// the previous flush. The session keeps no alert once it has handed it over.
func (s *Session) Flush() ([]detect.Alert, error) {
	return s.FlushContext(context.Background())
}

// FlushContext is Flush bounded by ctx. If the context expires while the
// flush is queued, the worker still performs it later; only the wait is
// abandoned.
func (s *Session) FlushContext(ctx context.Context) ([]detect.Alert, error) {
	if err := s.ingestErr(); err != nil {
		return nil, err
	}
	done := make(chan reply, 1)
	// The flush is traced in its own right: it judges the pending short
	// window, which is where SQL-channel and fused verdicts on partial
	// windows surface.
	ta := s.rt.traces.Begin(trace.Context{}, s.id, "flush")
	if err := s.rt.enqueue(ctx, s.worker, op{s: s, kind: opFlush, done: done, ta: ta}, true); err != nil {
		return nil, err
	}
	return s.await(ctx, done)
}

// Close flushes the session, returns the alerts raised since the previous
// flush, removes it from the runtime, and recycles its engine. Further calls
// return ErrClosed. Closing a quarantined session releases its registration
// and returns ErrSessionFailed (its pending alerts died with its engine).
func (s *Session) Close() ([]detect.Alert, error) {
	return s.CloseContext(context.Background())
}

// CloseContext is Close bounded by ctx. The session is deregistered even if
// the wait is abandoned; the worker still retires its engine later.
func (s *Session) CloseContext(ctx context.Context) ([]detect.Alert, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.closed = true
	s.mu.Unlock()

	done := make(chan reply, 1)
	// The session is already marked closed, so enqueue directly (control ops
	// are never shed).
	ta := s.rt.traces.Begin(trace.Context{}, s.id, "close")
	err := s.rt.enqueue(ctx, s.worker, op{s: s, kind: opClose, done: done, ta: ta}, true)
	var alerts []detect.Alert
	if err == nil {
		alerts, err = s.await(ctx, done)
	}
	s.deregister()
	return alerts, err
}

// await waits for a control op's reply, bounded by ctx and by runtime
// shutdown (the workers answer every queued control op before exiting, but a
// send that raced past shutdown could otherwise wait forever).
func (s *Session) await(ctx context.Context, done chan reply) ([]detect.Alert, error) {
	select {
	case r := <-done:
		return r.alerts, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.rt.stopped:
		// A worker may have replied concurrently with shutdown.
		select {
		case r := <-done:
			return r.alerts, r.err
		default:
			return nil, ErrClosed
		}
	}
}

func (s *Session) deregister() {
	rt := s.rt
	rt.mu.Lock()
	owned := rt.sessions[s.id] == s
	if owned {
		delete(rt.sessions, s.id)
	}
	rt.mu.Unlock()
	if owned {
		rt.ctr.SessionClosed()
	}
}

// enqueue routes an op to a worker, recording the trace admission span for
// traced ops. Trace ownership transfers to the worker only when the op
// actually reaches a queue; fully rejected ops finish their trace here, so
// producer and worker never double-finish.
func (rt *Runtime) enqueue(ctx context.Context, worker int, o op, control bool) error {
	if o.ta == nil {
		return rt.enqueueOp(ctx, worker, o, control)
	}
	start := time.Now()
	depth := rt.pending[worker].Load()
	// Once the op reaches a queue the worker owns the creator reference and
	// may finish the op — and thus commit the trace — before this producer
	// records the admit span. Holding our own reference across the admission
	// window keeps the trace uncommitted until the span lands.
	o.ta.Ref()
	defer o.ta.Release()
	err := rt.enqueueOp(ctx, worker, o, control)
	verdict, shedCalls := "admitted", 0
	enqueued := err == nil
	if err != nil {
		// Declared here, bse (which errors.As moves to the heap) costs an
		// allocation only on a refused op.
		var bse *BatchShedError
		switch {
		case errors.As(err, &bse):
			shedCalls = bse.Shed
			verdict = "shed"
			if bse.Shed < bse.Batch {
				verdict = "partial"
				enqueued = true // the admitted prefix is queued; the worker owns the trace
			}
		case errors.Is(err, ErrShed):
			verdict, shedCalls = "shed", 1
		default:
			verdict = "rejected" // closed runtime or expired context
		}
	}
	policy := "block"
	if rt.shed != nil {
		policy = "shed-by-risk"
	}
	o.ta.Event(trace.RootSpan, "admit", start,
		trace.Int("queue_depth", depth),
		trace.Int("worker", int64(worker)),
		trace.String("policy", policy),
		trace.String("verdict", verdict),
		trace.Int("shed_calls", int64(shedCalls)))
	if !enqueued {
		o.ta.Finish()
	}
	return err
}

// enqueueOp is the enqueue body: observe ops go through the shed controller
// when there is one; everything else, and control ops (flush/close) always,
// uses backpressure — control ops are rare, small, and their reply channel
// must be served. Blocking sends are bounded by ctx and by runtime shutdown.
func (rt *Runtime) enqueueOp(ctx context.Context, worker int, o op, control bool) error {
	rt.mu.RLock()
	if rt.closed {
		rt.mu.RUnlock()
		return ErrClosed
	}
	q := rt.queues[worker]
	rt.mu.RUnlock()
	if !control && rt.shed != nil {
		return rt.enqueueShed(ctx, q, worker, o)
	}
	n := o.callCount()
	rt.trackPending(worker, n)
	select {
	case q <- o:
		return nil
	case <-rt.stopped:
		rt.releasePending(worker, n)
		return ErrClosed
	case <-ctx.Done():
		rt.releasePending(worker, n)
		return ctx.Err()
	}
}

// trackPending charges n offered calls to worker w's pending ledger and
// folds the new depth into the lifetime high-water mark.
func (rt *Runtime) trackPending(w int, n uint64) {
	if n == 0 {
		return
	}
	rt.ctr.NoteQueueDepth(rt.pending[w].Add(int64(n)))
}

func (rt *Runtime) releasePending(w int, n uint64) {
	if n > 0 {
		rt.pending[w].Add(-int64(n))
	}
}

// reserve charges up to n calls against worker w's call budget (queueDepth
// calls of un-dequeued backlog) and returns how many fit — the admitted
// batch prefix. The unadmitted remainder is released immediately.
func (rt *Runtime) reserve(w, n int) int {
	now := rt.pending[w].Add(int64(n))
	admit := n
	if over := now - int64(rt.cfg.queueDepth); over > 0 {
		cut := int(over)
		if cut > n {
			cut = n
		}
		admit = n - cut
		rt.pending[w].Add(-int64(cut))
		now -= int64(cut)
	}
	rt.ctr.NoteQueueDepth(now)
	return admit
}

// shedErr shapes the rejection error: single-call ops keep the plain
// ErrShed contract; multi-call ops carry exact counts via BatchShedError.
func shedErr(o *op, shedCalls, batch int) error {
	if o.calls == nil {
		return ErrShed
	}
	return &BatchShedError{Shed: shedCalls, Batch: batch}
}

// enqueueShed is the risk-aware admission path: one deterministic controller
// decision per op, guaranteed (blocking) admission for high-risk sessions,
// budgeted prefix admission for the rest — a full queue rejects only the
// tail of a batch that partly fits.
func (rt *Runtime) enqueueShed(ctx context.Context, q chan op, worker int, o op) error {
	n := int(o.callCount())
	sr := o.s.risk
	occ := float64(rt.pending[worker].Load()) / float64(rt.cfg.queueDepth)
	d := rt.shed.Decide(sr, worker, occ)
	if !d.Admit {
		rt.noteShed(o.s, d, n)
		return shedErr(&o, n, n)
	}
	if d.Guaranteed {
		// High-risk sessions are always scored: blocking backpressure,
		// bounded only by the caller's context and shutdown.
		rt.trackPending(worker, uint64(n))
		select {
		case q <- o:
			rt.shed.Admitted(sr, d, n)
			return nil
		case <-rt.stopped:
			rt.releasePending(worker, uint64(n))
			return ErrClosed
		case <-ctx.Done():
			rt.releasePending(worker, uint64(n))
			return ctx.Err()
		}
	}
	admit := rt.reserve(worker, n)
	if admit == 0 {
		rt.noteShed(o.s, d, n)
		return shedErr(&o, n, n)
	}
	if admit < n {
		o.calls = o.calls[:admit]
	}
	select {
	case q <- o:
		rt.shed.Admitted(sr, d, admit)
		if admit < n {
			rt.noteShed(o.s, d, n-admit)
			return shedErr(&o, n-admit, n)
		}
		return nil
	default:
		// The call budget had room but the op-slot channel is full (many
		// small ops queued): shed the whole batch.
		rt.releasePending(worker, uint64(admit))
		rt.noteShed(o.s, d, n)
		return shedErr(&o, n, n)
	}
}

// noteShed does the bookkeeping of one shed outcome: controller risk-mass
// accounting, the Stats.Shed counter, and decision provenance.
func (rt *Runtime) noteShed(s *Session, d shed.Decision, calls int) {
	rt.shed.Shed(s.risk, d, calls)
	rt.ctr.AddShed(uint64(calls))
	rt.recordShed(s, d, calls)
}

// recordShed writes shed provenance so an operator can see exactly what was
// not scored and why. The first shed on a session bypasses the sampling gate
// (like an alert, it is evidence that must survive); later ones are sampled
// 1-in-N with the cumulative per-session count carried on each record. A
// shed op's trace is a healthy one the store may sample out, so the record
// carries no trace ID.
func (rt *Runtime) recordShed(s *Session, d shed.Decision, calls int) {
	if rt.decisions == nil {
		return
	}
	total := s.risk.ShedCalls()
	if total != uint64(calls) && !rt.decisions.Admit(false) {
		return
	}
	rt.decisions.Add(obsv.Decision{
		Session:     s.id,
		UnixNanos:   time.Now().UnixNano(),
		Flag:        "Shed",
		Generation:  s.lastGen.Load(),
		Shed:        true,
		ShedCalls:   calls,
		SessionShed: total,
		Risk:        d.Risk,
		Occupancy:   d.Occupancy,
	}, false)
}

// supervise owns one worker slot: it runs the worker loop and restarts it
// with capped exponential backoff when it crashes. The ingest queue survives
// restarts, so queued ops of healthy sessions are only delayed, never lost.
func (rt *Runtime) supervise(w int) {
	defer rt.wg.Done()
	backoff := restartBackoffBase
	for {
		if rt.runWorker(w) {
			return // clean shutdown
		}
		rt.ctr.AddWorkerRestart()
		if l := rt.cfg.logger; l != nil {
			l.Warn("worker crashed; restarting", "worker", w, "backoff", backoff)
		}
		select {
		case <-time.After(backoff):
		case <-rt.stopped:
			rt.drainQueue(w)
			return
		}
		if backoff *= 2; backoff > restartBackoffCap {
			backoff = restartBackoffCap
		}
	}
}

// runWorker serves ops until shutdown (returns true) or a panic that escaped
// the per-op recovery kills it (returns false after quarantining the session
// whose op was in flight).
func (rt *Runtime) runWorker(w int) (clean bool) {
	q := rt.queues[w]
	var cur *op
	// o lives outside the loop so taking its address escapes it to the heap
	// once per worker run, not once per op.
	var o op
	defer func() {
		if r := recover(); r != nil {
			rt.ctr.AddPanic()
			if cur != nil {
				rt.failSession(cur, fmt.Errorf("worker %d crashed: %v", w, r))
				// A panic outside process (the worker hook) leaves the op's
				// trace open; process's own recovery closes its own.
				cur.finishTrace()
			}
		}
	}()
	for {
		select {
		case o = <-q:
			rt.releasePending(w, o.callCount())
			cur = &o
			if h := rt.cfg.workerHook; h != nil {
				// Outside the per-op recovery: a panic here kills the worker.
				h(w, o.s.id)
			}
			rt.process(&o)
			cur = nil
		case <-rt.stopped:
			rt.drainQueue(w)
			return true
		}
	}
}

// drainQueue empties a worker queue during shutdown, answering control ops
// so no Flush/Close waits on a stopped worker.
func (rt *Runtime) drainQueue(w int) {
	q := rt.queues[w]
	for {
		select {
		case o := <-q:
			if n := o.callCount(); n > 0 {
				rt.releasePending(w, n)
				rt.ctr.AddDropped(n)
			}
			o.reply(reply{err: ErrClosed})
			o.finishTrace()
		default:
			return
		}
	}
}

// failSession quarantines the session an op was addressed to, discards its
// (suspect) engine rather than recycling it, and answers the op.
func (rt *Runtime) failSession(o *op, cause error) {
	if o.s.quarantine(cause) {
		rt.ctr.AddQuarantined()
		if l := rt.cfg.logger; l != nil {
			l.Warn("session quarantined",
				"session", o.s.id,
				"generation", o.s.lastGen.Load(),
				"trace", o.ta.ID(),
				"cause", cause)
		}
	}
	o.s.engine = nil
	o.reply(reply{err: o.s.Err()})
}

// process runs one op under per-op panic recovery: a panicking engine, judge
// observer, or profile quarantines only the offending session and the worker
// moves on to its next op.
func (rt *Runtime) process(o *op) {
	// Registered first so it runs last: the panic-recovery defer below still
	// sees o.ta for its quarantine log, and sink deliveries take their trace
	// references inside the body, before the worker's reference is released.
	defer o.finishTrace()
	defer func() {
		if r := recover(); r != nil {
			rt.ctr.AddPanic()
			rt.failSession(o, fmt.Errorf("recovered panic: %v", r))
		}
	}()
	s := o.s
	if s.dead {
		// An op that raced with Close and was enqueued behind the close
		// op must not resurrect an engine on the dead session.
		if n := o.callCount(); n > 0 {
			rt.ctr.AddDropped(n)
		}
		o.reply(reply{})
		return
	}
	if err := s.Err(); err != nil {
		// Quarantined: shed queued observes, answer control ops with the
		// failure, and let a close op retire the registration.
		if n := o.callCount(); n > 0 {
			rt.ctr.AddDropped(n)
		}
		if o.kind == opClose {
			s.dead = true
		}
		o.reply(reply{err: err})
		return
	}
	if s.engine == nil {
		rt.installEngine(s)
	}
	s.lastGen.Store(s.gen)
	// One clock capture per op: the same timestamp stamps the latency
	// histogram, the observer hooks, and every Decision this op produces.
	start := time.Now()
	s.opTime = start
	var ot *opTrace
	var scoreSpan trace.SpanHandle
	if rt.opTraces != nil {
		// Reset the worker's op tracing state unconditionally — even for an
		// untraced op (ta == nil), a trace a panicked prior op left behind
		// must be cleared (its Active may already be recycled through the
		// store's pool).
		ot = &rt.opTraces[s.worker]
		*ot = opTrace{ta: o.ta}
		if o.ta != nil {
			scoreSpan = o.ta.StartSpan(trace.RootSpan, "score")
			ot.scoreSpan = scoreSpan.ID()
		}
	}
	switch o.kind {
	case opObserve:
		calls := o.calls
		if calls == nil {
			calls = []collector.Call{o.call}
		}
		alerts := s.engine.ObserveBatch(calls)
		rt.ctr.AddCalls(len(calls), time.Since(start).Nanoseconds())
		rt.noteSensitive(s)
		rt.finishScore(s, ot, scoreSpan, len(calls), alerts)
		rt.recordAlerts(s, alerts, o.ta)
		rt.deliver(s, alerts, o.ta)
	case opFlush, opClose:
		before := len(s.engine.Alerts())
		// The engine forgets what it hands over, so the reply owns alerts.
		alerts := s.engine.Flush()
		rt.ctr.AddFlush(time.Since(start).Nanoseconds())
		// The flush judges the pending short window, so SQL-channel and
		// fused verdicts surface here: the flush op's own trace carries
		// their judgement spans and the alert correlation.
		rt.finishScore(s, ot, scoreSpan, 0, alerts[before:])
		rt.recordAlerts(s, alerts[before:], o.ta)
		rt.deliver(s, alerts[before:], o.ta)
		// Windows never straddle traces: the next stream starts clean.
		s.engine.ResetWindow()
		if o.kind == opClose {
			eng, gen := s.engine, s.gen
			s.engine = nil
			s.dead = true
			if rt.cur.Load().gen == gen {
				rt.pool.Put(&pooledEngine{gen: gen, e: eng})
			} else {
				rt.ctr.AddEngineRetired()
			}
		} else if rt.cur.Load().gen != s.gen {
			// Trace boundary (window just reset) with a newer generation
			// published: upgrade the session now, carrying its sequence
			// counter into the new engine so the next trace scores on the
			// new profile with continuous numbering.
			old := s.engine
			rt.installEngine(s)
			s.engine.Adopt(old)
			s.sensSeen = s.engine.SensitiveTouches()
			rt.ctr.AddEngineRetired()
		}
		o.reply(reply{alerts: alerts})
	}
}

// finishScore closes a traced op's engine-scoring span with the op's
// judgement summary (windows judged, latest per-channel score and threshold,
// scorer mode, score-error bound, judging generation) and marks the trace
// alert-bearing when the op raised alerts so the store's keep-alerts
// retention applies. The alert-raising op's trace ID also becomes the
// observe-latency histogram's exemplar. No-op for untraced ops.
func (rt *Runtime) finishScore(s *Session, ot *opTrace, h trace.SpanHandle, calls int, alerts []detect.Alert) {
	if ot == nil || ot.ta == nil {
		return
	}
	// The span copies its attributes, so the list lives on this stack.
	var buf [10]trace.Attr
	attrs := append(buf[:0],
		trace.Int("calls", int64(calls)),
		trace.Int("windows", int64(ot.windows)),
		trace.Int("alerts", int64(len(alerts))),
		trace.String("scorer", rt.cfg.scorerMode.String()),
		trace.Int("generation", int64(s.gen)),
	)
	if ot.hmm.Channel != "" {
		attrs = append(attrs,
			trace.Float("hmm_score", ot.hmm.Score),
			trace.Float("hmm_threshold", ot.hmm.Threshold),
			trace.Float("score_error_bound", ot.hmm.Bound))
	}
	if ot.sql.Channel != "" {
		attrs = append(attrs,
			trace.Float("sql_score", ot.sql.Score),
			trace.Float("sql_threshold", ot.sql.Threshold))
	}
	h.End(attrs...)
	if len(alerts) > 0 {
		ot.ta.MarkAlert()
		rt.ctr.NoteObserveExemplar(ot.ta.ID())
	}
	ot.ta = nil
}

// judgementStage names the span of a flagged judgement on channel ch, a
// constant for the channels the engine has.
func judgementStage(ch string) string {
	switch ch {
	case detect.ChannelHMM:
		return "score.hmm"
	case detect.ChannelSQL:
		return "score.sql"
	}
	return "score." + ch
}

// noteSensitive feeds the engine's sensitive-touch delta into the session's
// risk state. Runs on the worker goroutine after each observe op.
func (rt *Runtime) noteSensitive(s *Session) {
	if s.risk == nil {
		return
	}
	if t := s.engine.SensitiveTouches(); t > s.sensSeen {
		s.risk.NoteSensitive()
		s.sensSeen = t
	}
}

// installEngine equips s with an engine over the current generation: a pooled
// engine of that generation if one is available (stale pooled engines are
// discarded and counted), a freshly built one otherwise. Runs on the
// session's worker goroutine.
func (rt *Runtime) installEngine(s *Session) {
	g := rt.cur.Load()
	pe := rt.pool.Get().(*pooledEngine)
	if pe.gen != g.gen {
		rt.ctr.AddEngineRetired()
		pe = &pooledEngine{gen: g.gen, e: detect.NewEngine(g.p)}
	}
	e := pe.e
	e.Reset()
	e.SetScorerMode(rt.cfg.scorerMode)
	if rt.cfg.sqlProfile != nil {
		e.SetSQLChannel(sqlchan.NewScorer(rt.cfg.sqlProfile), rt.cfg.fusion)
	}
	if rt.shed != nil {
		e.SetSensitiveLabels(rt.shed.Config().SensitiveLabels)
	}
	var ot *opTrace
	if rt.opTraces != nil {
		ot = &rt.opTraces[s.worker]
	}
	id, obs, decisions, risk := s.id, rt.cfg.observer, rt.decisions, s.risk
	if ot != nil || obs != nil || decisions != nil || risk != nil {
		// The one judgement stream fans out to the op's trace, then — for
		// HMM windows — to the shed tier's per-session risk signals, the
		// sampled Normal decisions, and the observer.
		e.SetJudgeHook(func(j detect.Judgement) {
			if ot != nil && ot.ta != nil {
				ot.note(j)
			}
			if j.Channel != detect.ChannelHMM {
				return
			}
			if risk != nil {
				risk.NoteJudgement(j.Score, j.Flagged)
			}
			// Unflagged judgements are sampled (1-in-N) before one is built;
			// flagged ones are recorded with alert context in recordAlerts.
			// The op's trace is healthy and may be sampled out of the
			// store, so a sampled Normal record carries no trace ID.
			if !j.Flagged && decisions.Admit(false) {
				decisions.Add(obsv.Decision{
					Session:    id,
					Seq:        j.Seq,
					UnixNanos:  s.opTime.UnixNano(),
					Score:      j.Score,
					Threshold:  j.Threshold,
					Flag:       detect.FlagNormal.String(),
					Generation: s.gen,
				}, false)
			}
			if obs != nil {
				obs(id, j.Seq, s.opTime, j.Score, j.Flagged)
			}
		})
	}
	s.engine = e
	s.gen = pe.gen
	s.sensSeen = e.SensitiveTouches()
}

// recordAlerts writes one provenance Decision per raised alert — alerts are
// always kept and only newer alerts evict them, so the evidence survives.
// The op's trace ID ("" when untraced) correlates each record with its
// decision trace; it is read only when there is an alert to record. Runs on
// the session's worker goroutine.
func (rt *Runtime) recordAlerts(s *Session, alerts []detect.Alert, ta *trace.Active) {
	if rt.decisions == nil || len(alerts) == 0 {
		return
	}
	traceID := ta.ID()
	for i := range alerts {
		a := &alerts[i]
		bound := a.ScoreErrorBound
		if math.IsInf(bound, 1) {
			bound = math.MaxFloat64
		}
		rt.decisions.Add(obsv.Decision{
			Session:         s.id,
			Seq:             a.Seq,
			UnixNanos:       s.opTime.UnixNano(),
			Score:           a.Score,
			Threshold:       a.Threshold,
			Flag:            a.Flag.String(),
			Flagged:         true,
			Generation:      s.gen,
			Label:           a.Label,
			Caller:          a.Caller,
			ScoreErrorBound: bound,
			Channels:        a.Channels,
			SQLScore:        a.SQLScore,
			SQLThreshold:    a.SQLThreshold,
			FusedScore:      a.FusedScore,
			Trace:           traceID,
		}, true)
	}
}

// deliver counts alerts and hands them to the async sink buffer without
// ever blocking the worker: a full buffer sheds the delivery, the one place
// an alert is shed. A traced op keeps one trace reference per enqueued
// delivery, so the sink span still lands in the trace after the op itself
// completes.
func (rt *Runtime) deliver(s *Session, alerts []detect.Alert, ta *trace.Active) {
	for _, a := range alerts {
		rt.ctr.AddAlert(int(a.Flag))
		for _, ch := range a.Channels {
			rt.ctr.AddChannelAlert(detect.ChannelIndex(ch))
		}
	}
	if rt.alertq == nil {
		return
	}
	for _, a := range alerts {
		ta.Ref()
		select {
		case rt.alertq <- alertMsg{session: s.id, alert: a, gen: s.gen, ta: ta}:
		default:
			rt.ctr.AddSinkDropped(1)
			if l := rt.cfg.logger; l != nil {
				l.Warn("sink overflow", "session", s.id, "generation", s.gen,
					"trace", ta.ID(), "cause", "buffer full")
			}
			ta.Event(trace.RootSpan, "sink", time.Now(),
				trace.String("verdict", "shed"),
				trace.String("cause", "buffer full"),
				trace.Int("seq", int64(a.Seq)))
			ta.Release()
		}
	}
}

// deliverLoop drains the sink buffer, invoking the user sink one alert at a
// time under panic recovery. An alert waits in the buffer for as long as the
// sink takes; while a sink hangs, the queued alerts and their traces stay
// pending with it.
func (rt *Runtime) deliverLoop() {
	defer rt.sinkWG.Done()
	for m := range rt.alertq {
		rt.callSink(m)
	}
}

func (rt *Runtime) callSink(m alertMsg) {
	start := time.Now()
	defer func() {
		rt.ctr.AddSinkDelivery(time.Since(start).Nanoseconds())
		verdict := "delivered"
		if r := recover(); r != nil {
			rt.ctr.AddSinkPanic()
			verdict = "panicked"
		}
		m.ta.Event(trace.RootSpan, "sink", start,
			trace.String("verdict", verdict),
			trace.String("flag", m.alert.Flag.String()),
			trace.Int("seq", int64(m.alert.Seq)))
		m.ta.Release()
	}()
	rt.cfg.sink(m.session, m.alert)
}

// Close flushes every open session's partial window, drains the workers and
// the sink pipeline, and stops them. The runtime accepts no calls
// afterwards. Close is idempotent; concurrent Observes racing with Close
// either complete or return ErrClosed. Close waits for the sink to take
// every buffered alert — use CloseContext to bound shutdown when the sink
// may hang.
func (rt *Runtime) Close() error {
	return rt.CloseContext(context.Background())
}

// CloseContext is Close bounded by ctx: the per-session drain and the final
// worker/sink join each give up when the context expires, returning
// ctx.Err() while shutdown completes in the background. Either way the
// runtime stops accepting calls before CloseContext returns.
func (rt *Runtime) CloseContext(ctx context.Context) error {
	rt.closeMu.Lock()
	defer rt.closeMu.Unlock()

	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	// Refuse new session registrations from this point: a session registered
	// after this snapshot would otherwise never be flushed and would leak
	// the ActiveSessions gauge.
	rt.draining = true
	open := make([]*Session, 0, len(rt.sessions))
	for _, s := range rt.sessions {
		open = append(open, s)
	}
	rt.mu.Unlock()

	// Flush sessions while ingest is still accepted, so their partial
	// windows are judged and delivered to the sink; a dead deadline stops
	// the drain early.
	var ctxErr error
	for _, s := range open {
		if _, err := s.CloseContext(ctx); err != nil &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			ctxErr = err
			break
		}
	}

	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
	rt.stopOnce.Do(func() { close(rt.stopped) })

	finished := make(chan struct{})
	go func() {
		rt.wg.Wait()
		if rt.alertq != nil {
			close(rt.alertq)
			rt.sinkWG.Wait()
		}
		close(finished)
	}()
	select {
	case <-finished:
		return ctxErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is a point-in-time snapshot of the runtime's health.
type Stats struct {
	// Calls scored, and calls discarded unscored: queued for a session
	// that died or was quarantined, or still queued at shutdown.
	Calls, Dropped uint64
	// Alerts raised, by detect.Flag value.
	Alerts [metrics.NumFlags]uint64
	// ChannelAlerts counts alert provenance by detection channel, indexed by
	// detect.ChannelNames (hmm, sql, fusion); one alert can count against
	// several channels. All zero on single-channel runtimes.
	ChannelAlerts [metrics.NumChannels]uint64
	// QueueDepth is the number of calls currently waiting across all worker
	// queues; Workers and QueueCap describe capacity.
	QueueDepth int
	Workers    int
	QueueCap   int
	// ActiveSessions / SessionsOpened count session churn.
	ActiveSessions int64
	SessionsOpened uint64
	// AvgLatency is the mean engine-side processing time per call;
	// MaxLatency the largest single call, and P50/P95/P99Latency the
	// percentiles estimated from the observe-path latency histogram.
	AvgLatency time.Duration
	MaxLatency time.Duration
	P50Latency time.Duration
	P95Latency time.Duration
	P99Latency time.Duration
	// Panics counts panics recovered on workers (per-op or worker-crash);
	// WorkerRestarts counts supervised worker restarts; Quarantined counts
	// sessions isolated after a failure.
	Panics         uint64
	WorkerRestarts uint64
	Quarantined    uint64
	// SinkDropped counts alerts shed because the async sink buffer was
	// full; SinkPanics counts panics recovered from the user's alert sink.
	SinkDropped uint64
	SinkPanics  uint64
	// Generation is the current profile generation (1 until the first swap);
	// Swaps counts SwapProfile publications; EnginesRetired counts engines
	// discarded for being a generation behind instead of recycled.
	Generation     uint64
	Swaps          uint64
	EnginesRetired uint64
	// DecisionsRecorded counts provenance records written into the decision
	// log (alerts plus 1-in-N sampled Normal judgements).
	DecisionsRecorded uint64
	// TracesStored counts decision traces committed into the trace store
	// (alert traces plus 1-in-N sampled healthy traces); TracesSampledOut
	// counts healthy traces the sampling gate passed over. Both zero when
	// tracing is disabled.
	TracesStored     uint64
	TracesSampledOut uint64
	// Shed counts calls rejected by risk-aware admission (WithShedConfig
	// only; disjoint from Dropped), and ShedRate is the fraction of offered
	// calls shed so far: Shed / (Shed + Calls).
	Shed     uint64
	ShedRate float64
	// EstimatedMissProb estimates the fraction of expected alert evidence
	// the shedding gave up: shed risk mass over total offered risk mass.
	EstimatedMissProb float64
	// ShedEngaged reports whether any worker's admission controller is
	// currently shedding (queue occupancy inside the hysteresis band or
	// above).
	ShedEngaged bool
	// QueueHighWater is the lifetime maximum pending-call depth observed on
	// any single worker queue — the saturation early warning.
	QueueHighWater int
}

// AlertTotal sums the per-flag alert counts.
func (s Stats) AlertTotal() uint64 {
	var t uint64
	for _, v := range s.Alerts {
		t += v
	}
	return t
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"calls=%d dropped=%d alerts=%d (anomalous=%d dl=%d ooc=%d) channels[hmm=%d sql=%d fused=%d] sessions=%d/%d queue=%d/%d×%d qhw=%d avg=%s max=%s p50=%s p95=%s p99=%s panics=%d restarts=%d quarantined=%d sink[dropped=%d panics=%d] gen=%d swaps=%d retired=%d decisions=%d traces[stored=%d sampled_out=%d] shed[calls=%d rate=%.4f missp=%.4f engaged=%v]",
		s.Calls, s.Dropped, s.AlertTotal(),
		s.Alerts[int(detect.FlagAnomalous)], s.Alerts[int(detect.FlagDL)], s.Alerts[int(detect.FlagOutOfContext)],
		s.ChannelAlerts[0], s.ChannelAlerts[1], s.ChannelAlerts[2],
		s.ActiveSessions, s.SessionsOpened, s.QueueDepth, s.Workers, s.QueueCap, s.QueueHighWater,
		s.AvgLatency, s.MaxLatency, s.P50Latency, s.P95Latency, s.P99Latency,
		s.Panics, s.WorkerRestarts, s.Quarantined, s.SinkDropped, s.SinkPanics,
		s.Generation, s.Swaps, s.EnginesRetired, s.DecisionsRecorded,
		s.TracesStored, s.TracesSampledOut,
		s.Shed, s.ShedRate, s.EstimatedMissProb, s.ShedEngaged)
}

// Stats snapshots the runtime's counters and gauges.
func (rt *Runtime) Stats() Stats {
	snap := rt.ctr.Snapshot()
	st := Stats{
		Calls:          snap.Calls,
		Dropped:        snap.Dropped,
		Alerts:         snap.Alerts,
		ChannelAlerts:  snap.ChannelAlerts,
		Workers:        rt.cfg.workers,
		QueueCap:       rt.cfg.queueDepth,
		ActiveSessions: snap.ActiveSessions,
		SessionsOpened: snap.SessionsOpened,
		AvgLatency:     time.Duration(snap.AvgLatencyNanos()),
		MaxLatency:     time.Duration(snap.MaxLatencyNanos()),
		P50Latency:     time.Duration(snap.Observe.Quantile(0.50)),
		P95Latency:     time.Duration(snap.Observe.Quantile(0.95)),
		P99Latency:     time.Duration(snap.Observe.Quantile(0.99)),
		Panics:         snap.Panics,
		WorkerRestarts: snap.WorkerRestarts,
		Quarantined:    snap.Quarantined,
		SinkDropped:    snap.SinkDropped,
		SinkPanics:     snap.SinkPanics,
		Generation:     rt.cur.Load().gen,
		Swaps:          snap.Swaps,
		EnginesRetired: snap.EnginesRetired,
	}
	st.DecisionsRecorded = rt.decisions.Kept()
	st.TracesStored = rt.traces.Stored()
	st.TracesSampledOut = rt.traces.SampledOut()
	st.Shed = snap.Shed
	st.QueueHighWater = int(snap.QueueHighWater)
	if st.Shed > 0 {
		st.ShedRate = float64(st.Shed) / float64(st.Shed+st.Calls)
	}
	if rt.shed != nil {
		ss := rt.shed.Snapshot()
		st.EstimatedMissProb = ss.MissProbability
		st.ShedEngaged = ss.Engaged
	}
	// QueueDepth is the pending-call ledger, not channel occupancy: it counts
	// calls (batches weighted by size) offered and not yet dequeued.
	for i := range rt.pending {
		if d := rt.pending[i].Load(); d > 0 {
			st.QueueDepth += int(d)
		}
	}
	return st
}

// WorkerQueueDepths returns each worker's current pending-call depth — the
// per-worker saturation gauges behind the adprom_worker_queue_depth metric.
func (rt *Runtime) WorkerQueueDepths() []int {
	out := make([]int, len(rt.pending))
	for i := range rt.pending {
		if d := rt.pending[i].Load(); d > 0 {
			out[i] = int(d)
		}
	}
	return out
}

// ShedSnapshot exposes the risk-aware admission controller's counters (the
// zero Snapshot when the runtime does not shed by risk).
func (rt *Runtime) ShedSnapshot() shed.Snapshot {
	if rt.shed == nil {
		return shed.Snapshot{}
	}
	return rt.shed.Snapshot()
}

// Histograms bundles the runtime's latency histograms: per-call engine
// scoring (Observe), flush/close processing (Flush), and async alert
// deliveries to the user sink (SinkDelivery). All values are nanoseconds.
type Histograms struct {
	Observe      metrics.HistogramSnapshot
	Flush        metrics.HistogramSnapshot
	SinkDelivery metrics.HistogramSnapshot
}

// Histograms snapshots the runtime's latency histograms.
func (rt *Runtime) Histograms() Histograms {
	snap := rt.ctr.Snapshot()
	return Histograms{Observe: snap.Observe, Flush: snap.Flush, SinkDelivery: snap.SinkDelivery}
}

// Decisions returns up to limit of the most recent provenance records,
// newest first (limit ≤ 0 returns everything retained). Empty when the
// decision log was disabled with WithDecisionLog(-1, 0).
func (rt *Runtime) Decisions(limit int) []obsv.Decision { return rt.decisions.Newest(limit) }

// TracingEnabled reports whether the runtime was built with WithTracing.
func (rt *Runtime) TracingEnabled() bool { return rt.traces.Enabled() }

// BeginTrace opens a decision trace for an externally originated op — the
// network ingest and tenant routing layers call this before routing so the
// trace's root span covers decode and routing, not just engine scoring. tc
// may carry a client-supplied trace ID and transport attribution. Returns
// nil when tracing is disabled; a non-nil Active must be handed to
// Session.ObserveBatchTraced (which takes ownership) or Finished by the
// caller.
func (rt *Runtime) BeginTrace(tc trace.Context, session, stage string) *trace.Active {
	return rt.traces.Begin(tc, session, stage)
}

// Traces returns up to limit of the most recently retained decision traces,
// newest first (limit ≤ 0 returns everything retained). Nil when tracing is
// disabled.
func (rt *Runtime) Traces(limit int) []trace.Trace { return rt.traces.Traces(limit) }

// TraceByID returns the retained decision trace with the given ID.
func (rt *Runtime) TraceByID(id string) (trace.Trace, bool) { return rt.traces.TraceByID(id) }

// Introspection wires the runtime into obsv.NewHandler: /metrics,
// /decisions, /traces, /traces/{id}, /healthz and /readyz. A runtime serves
// one profile, so the hooks ignore the ?tenant= parameter. Liveness is the
// process answering at all; readiness is Ready.
func (rt *Runtime) Introspection() obsv.ServerConfig {
	return obsv.ServerConfig{
		Metrics:   rt.WritePrometheus,
		Decisions: func(_ string, limit int) ([]obsv.Decision, error) { return rt.Decisions(limit), nil },
		Traces:    func(_ string, limit int) ([]trace.Trace, error) { return rt.Traces(limit), nil },
		TraceByID: rt.TraceByID,
		Healthz:   func() error { return nil },
		Readyz:    rt.Ready,
	}
}

// Ready reports nil while the runtime serves ingest: workers supervised, a
// profile generation published, and Close not yet begun. The introspection
// endpoint's /readyz is wired to this.
func (rt *Runtime) Ready() error {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	switch {
	case rt.closed:
		return ErrClosed
	case rt.draining:
		return errors.New("runtime: draining")
	case rt.cur.Load().gen == 0:
		return errors.New("runtime: no profile generation published")
	}
	return nil
}
