package lifecycle

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"adprom/internal/collector"
	"adprom/internal/metrics"
	"adprom/internal/profile"
	"adprom/internal/retain"
	"adprom/internal/runtime"
)

// Config tunes a Manager. The zero value applies the defaults noted per
// field; Registry and Logf are optional.
type Config struct {
	// Drift configures the judgement-stream drift detector.
	Drift DriftConfig
	// Retrain configures the background warm-started retraining pass.
	Retrain profile.RetrainOptions
	// RingCapacity bounds the judged-Normal retraining corpus (default 256
	// traces; the oldest is evicted when full).
	RingCapacity int
	// MinTraces is the corpus size below which a confirmed drift verdict
	// defers retraining instead of training on too little data (default 8).
	MinTraces int
	// Cooldown is the minimum gap between retraining runs; a verdict arriving
	// earlier waits out the remainder. Zero means no cooldown.
	Cooldown time.Duration
	// Registry, when set, persists every retrained generation.
	Registry *Registry
	// Source tags registry entries (default "drift-retrain").
	Source string
	// Logf, when set, receives one line per lifecycle event (drift verdicts,
	// retrain outcomes, swaps).
	Logf func(format string, args ...any)
	// Logger, when set, receives the same lifecycle events as structured
	// slog records (drift verdict, retrain start/finish, swap) — the
	// counterpart of the runtime's WithLogger option. Logf and Logger
	// compose; either may be nil.
	Logger *slog.Logger
}

// Manager runs the profile lifecycle against one runtime.Runtime: its
// Observe method (installed as the runtime's JudgeObserver) feeds the drift
// detector from the live judgement stream; a confirmed verdict wakes the
// manager goroutine, which retrains in the background from the RecordTrace
// corpus — never blocking detection workers — and hot-swaps the refreshed
// profile via Runtime.SwapProfile.
//
// Wire it with runtime.WithJudgeObserver(m.Observe) and
// runtime.WithAttach(m.Bind), then Start it. All methods are safe for
// concurrent use.
type Manager struct {
	cfg Config
	det *Detector
	lc  metrics.Lifecycle

	mu      sync.Mutex
	rt      *runtime.Runtime
	corpus  *retain.Ring[collector.Trace] // judged-Normal traces, oldest evicted
	last    time.Time                     // end of the previous retraining run
	pending bool                          // a drift verdict deferred on a thin corpus

	trigger   chan struct{}
	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

// NewManager builds a manager; see Config for the defaults.
func NewManager(cfg Config) *Manager {
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 256
	}
	if cfg.MinTraces <= 0 {
		cfg.MinTraces = 8
	}
	if cfg.Source == "" {
		cfg.Source = "drift-retrain"
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:     cfg,
		det:     NewDetector(cfg.Drift),
		corpus:  retain.NewRing[collector.Trace](cfg.RingCapacity),
		trigger: make(chan struct{}, 1),
		ctx:     ctx,
		cancel:  cancel,
	}
}

// Bind attaches the manager to the runtime it manages — pass it to
// runtime.WithAttach, or call it directly before Start.
func (m *Manager) Bind(rt *runtime.Runtime) {
	m.mu.Lock()
	m.rt = rt
	m.mu.Unlock()
}

// boundGeneration is the bound runtime's serving profile generation, 0
// before Bind — the correlation key on every lifecycle slog event.
func (m *Manager) boundGeneration() uint64 {
	m.mu.Lock()
	rt := m.rt
	m.mu.Unlock()
	if rt == nil {
		return 0
	}
	return rt.Generation()
}

// Observe is the runtime.JudgeObserver feeding the drift detector. It is on
// the workers' hot path: unsampled judgements cost one gate update, sampled
// ones a short mutex-guarded fold; a confirmed verdict additionally performs
// one non-blocking channel send. at is the runtime's single per-op clock
// capture — the sampler never calls time.Now itself.
func (m *Manager) Observe(_ string, _ int, at time.Time, score float64, flagged bool) {
	sampled, confirmed := m.det.ObserveAt(at, score, flagged)
	if sampled {
		m.lc.AddDriftSample()
	}
	if confirmed {
		m.lc.AddDriftSignal()
		st := m.det.State()
		m.logf("lifecycle: drift confirmed by %s signal (baseline mean %.3f rate %.3f, window mean %.3f rate %.3f, PH %.3f)",
			st.Cause, st.BaselineMean, st.BaselineRate, st.WindowMean, st.WindowRate, st.PH)
		if l := m.cfg.Logger; l != nil {
			// Every lifecycle event names the profile generation it concerns
			// (here: the drifting one), so operators can correlate the whole
			// drift→retrain→swap arc by one key.
			l.Warn("drift confirmed",
				"generation", m.boundGeneration(),
				"cause", st.Cause,
				"baseline_mean", st.BaselineMean, "baseline_rate", st.BaselineRate,
				"window_mean", st.WindowMean, "window_rate", st.WindowRate,
				"ph", st.PH)
		}
		m.kick()
	}
}

// RecordTrace adds one judged-Normal trace to the retraining corpus. Only
// traces vetted as legitimate (by the administrator, or by a policy that
// checked their replay raised no alerts) belong here: the next generation is
// trained on them. If a drift verdict was deferred because the corpus was too
// thin, reaching MinTraces revives it. The corpus keeps tr by reference.
func (m *Manager) RecordTrace(tr collector.Trace) {
	if len(tr) == 0 {
		return
	}
	m.mu.Lock()
	_, evicted := m.corpus.Push(tr)
	n := m.corpus.Len()
	revive := m.pending && n >= m.cfg.MinTraces
	if revive {
		m.pending = false
	}
	m.mu.Unlock()
	if evicted {
		m.lc.AddTraceEvicted()
	}
	m.lc.AddTraceRecorded()
	if revive {
		m.logf("lifecycle: corpus reached %d traces; reviving deferred retrain", n)
		m.kick()
	}
}

// TriggerRetrain requests a retraining run without waiting for a drift
// verdict (operator-initiated refresh). Non-blocking; coalesces with any
// pending trigger.
func (m *Manager) TriggerRetrain() { m.kick() }

func (m *Manager) kick() {
	select {
	case m.trigger <- struct{}{}:
	default:
	}
}

// Start launches the background retraining goroutine. Idempotent.
func (m *Manager) Start() {
	m.startOnce.Do(func() {
		m.wg.Add(1)
		go m.run()
	})
}

// Stop cancels any in-flight retraining and joins the background goroutine.
// Idempotent; the manager cannot be restarted.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() {
		m.cancel()
		m.wg.Wait()
	})
}

// Stats snapshots the lifecycle counters.
func (m *Manager) Stats() metrics.LifecycleSnapshot { return m.lc.Snapshot() }

// DriftState snapshots the drift detector.
func (m *Manager) DriftState() DriftState { return m.det.State() }

func (m *Manager) run() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-m.trigger:
		}
		if wait := m.cooldownLeft(); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-m.ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		m.retrainOnce()
	}
}

func (m *Manager) cooldownLeft() time.Duration {
	if m.cfg.Cooldown <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last.IsZero() {
		return 0
	}
	return m.cfg.Cooldown - time.Since(m.last)
}

// retrainOnce runs one supervised background retraining cycle: snapshot the
// corpus, warm-start a new model from the serving profile, re-select the
// threshold, hot-swap, persist, and re-arm the drift detector. Runs on the
// manager goroutine only (single-flight by construction).
func (m *Manager) retrainOnce() {
	m.mu.Lock()
	rt, traces := m.rt, m.corpus.Snapshot()
	m.mu.Unlock()
	if rt == nil {
		m.logf("lifecycle: retrain requested before Bind; dropping")
		m.det.Reset()
		return
	}
	if len(traces) < m.cfg.MinTraces {
		m.logf("lifecycle: drift confirmed but corpus has %d/%d traces; deferring retrain",
			len(traces), m.cfg.MinTraces)
		m.mu.Lock()
		m.pending = true
		m.mu.Unlock()
		m.det.Reset()
		return
	}

	m.lc.AddRetrainStarted()
	base := rt.Profile()
	start := time.Now()
	if l := m.cfg.Logger; l != nil {
		l.Info("retrain started",
			"generation", rt.Generation(),
			"traces", len(traces), "base_threshold", base.Threshold)
	}
	next, err := profile.Retrain(m.ctx, base, traces, m.cfg.Retrain)
	m.lc.ObserveRetrain(time.Since(start).Nanoseconds())
	if err != nil {
		m.lc.AddRetrainFailed()
		m.logf("lifecycle: retrain failed after %s: %v", time.Since(start).Round(time.Millisecond), err)
		if l := m.cfg.Logger; l != nil {
			l.Error("retrain failed",
				"generation", rt.Generation(),
				"elapsed", time.Since(start), "err", err)
		}
		m.det.Reset()
		return
	}
	gen, err := rt.SwapProfile(next)
	if err != nil {
		m.lc.AddRetrainFailed()
		m.logf("lifecycle: swap refused: %v", err)
		if l := m.cfg.Logger; l != nil {
			l.Error("swap refused", "generation", rt.Generation(), "err", err)
		}
		return
	}
	m.lc.AddRetrainSucceeded()
	m.lc.AddSwap()
	m.logf("lifecycle: generation %d live after %s retrain on %d traces (threshold %.4f → %.4f)",
		gen, time.Since(start).Round(time.Millisecond), len(traces), base.Threshold, next.Threshold)
	if l := m.cfg.Logger; l != nil {
		l.Info("retrain finished",
			"generation", gen,
			"elapsed", time.Since(start),
			"traces", len(traces),
			"threshold", next.Threshold)
	}
	if m.cfg.Registry != nil {
		if _, err := m.cfg.Registry.Add(next, gen, m.cfg.Source); err != nil {
			m.logf("lifecycle: persisting generation %d: %v", gen, err)
		}
	}
	m.det.Reset()
	m.mu.Lock()
	m.last = time.Now()
	m.mu.Unlock()
}

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}
