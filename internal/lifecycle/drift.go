// Package lifecycle manages the life of a detection profile after it is
// first deployed: it watches the live judgement stream for concept drift
// (paper §VII — the trained model ages as the protected application's
// behaviour legitimately evolves, turning benign traffic into a false-positive
// storm), retrains in the background from recent judged-Normal traces, and
// hot-swaps the refreshed profile into the serving runtime with zero
// downtime, recording every published generation in a persistent registry.
//
// The pieces compose but stand alone: Detector is the sampled drift
// estimator, Registry the versioned on-disk store, and Manager wires them to
// a runtime.Runtime and keeps the bounded retraining corpus (a retain.Ring).
package lifecycle

import (
	"sync"
	"time"

	"adprom/internal/retain"
)

// DriftConfig tunes the Detector. The zero value applies the defaults noted
// per field.
type DriftConfig struct {
	// SampleEvery is the sampling gate: only every Nth judgement is folded
	// into the estimator (default 4), so drift estimation costs the detection
	// workers one atomic increment on the other N-1.
	SampleEvery int
	// Window is the sliding window of folded samples the live estimates are
	// computed over (default 256).
	Window int
	// Warmup is the number of folded samples used to establish the baseline
	// mean score and anomaly rate before any verdict can fire (default =
	// Window).
	Warmup int
	// PHDelta is the Page–Hinkley slack: per-sample score drops below the
	// baseline mean smaller than this are tolerated (default 0.05 nats).
	PHDelta float64
	// PHLambda is the Page–Hinkley alarm threshold on the accumulated
	// mean-decrease statistic (default 10 nats).
	PHLambda float64
	// RateMargin confirms drift when the windowed anomaly rate exceeds the
	// baseline rate by at least this much (default 0.25); it only fires once
	// the window is full.
	RateMargin float64
}

func (c DriftConfig) withDefaults() DriftConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 4
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Window
	}
	if c.PHDelta <= 0 {
		c.PHDelta = 0.05
	}
	if c.PHLambda <= 0 {
		c.PHLambda = 10
	}
	if c.RateMargin <= 0 {
		c.RateMargin = 0.25
	}
	return c
}

// Detector is a sampled sliding estimator over the live judgement stream. It
// tracks two signals against a warm-up baseline: a Page–Hinkley-style
// one-sided change test on the mean window log-probability (scores sinking
// below the baseline mean faster than the allowed slack accumulate evidence
// until the alarm threshold), and the windowed anomaly rate (the fraction of
// flagged judgements in the last Window samples). Either signal crossing
// confirms drift; the verdict latches until Reset.
//
// Observe is safe for concurrent use from many detection workers; the
// sampling gate keeps the skipped judgements lock-free.
type Detector struct {
	cfg  DriftConfig
	gate *retain.Gate // passes every SampleEvery-th judgement on to mu

	mu sync.Mutex
	st driftState
}

type driftState struct {
	samples uint64

	// Warm-up accumulation, then the frozen baseline.
	warmN        int
	warmSum      float64
	warmFlags    int
	baselineMean float64
	baselineRate float64
	warm         bool

	// Sliding window of folded samples and its running sums.
	win     *retain.Ring[sample]
	winSum  float64
	winFlag int

	// Page–Hinkley accumulator and the latched verdict.
	ph      float64
	drifted bool
	cause   string

	// lastSample is the runtime-supplied timestamp of the newest folded
	// judgement — the detector never reads the clock itself.
	lastSample time.Time
}

// sample is one folded judgement in the sliding window.
type sample struct {
	score   float64
	flagged bool
}

// NewDetector builds a detector; see DriftConfig for the defaults.
func NewDetector(cfg DriftConfig) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:  cfg,
		gate: retain.NewGate(cfg.SampleEvery),
		st:   driftState{win: retain.NewRing[sample](cfg.Window)},
	}
}

// Observe folds one judgement (the per-symbol window log-probability and
// whether the window was flagged) through the sampling gate. It reports
// whether the judgement was sampled into the estimator, and whether this
// sample confirmed drift — true exactly once per Reset cycle, at the moment
// a signal crosses its boundary.
func (d *Detector) Observe(score float64, flagged bool) (sampled, confirmed bool) {
	return d.ObserveAt(time.Time{}, score, flagged)
}

// ObserveAt is Observe with the judgement's timestamp supplied by the caller
// — the runtime captures time.Now once per observed call and threads it to
// every observer, so the drift sampler never re-reads the clock on the hot
// path. The newest sampled timestamp surfaces in DriftState.LastSample.
func (d *Detector) ObserveAt(at time.Time, score float64, flagged bool) (sampled, confirmed bool) {
	if !d.gate.Take() {
		return false, false
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	st := &d.st
	st.samples++
	st.lastSample = at

	if !st.warm {
		st.warmN++
		st.warmSum += score
		if flagged {
			st.warmFlags++
		}
		if st.warmN >= d.cfg.Warmup {
			st.baselineMean = st.warmSum / float64(st.warmN)
			st.baselineRate = float64(st.warmFlags) / float64(st.warmN)
			st.warm = true
		}
		return true, false
	}

	if old, evicted := st.win.Push(sample{score, flagged}); evicted {
		st.winSum -= old.score
		if old.flagged {
			st.winFlag--
		}
	}
	st.winSum += score
	if flagged {
		st.winFlag++
	}

	// Page–Hinkley one-sided test for a decrease of the mean score: evidence
	// accumulates when samples sink more than PHDelta below the baseline
	// mean, and drains (floored at zero) when they recover.
	st.ph += st.baselineMean - score - d.cfg.PHDelta
	if st.ph < 0 {
		st.ph = 0
	}

	if st.drifted {
		return true, false
	}
	if st.ph > d.cfg.PHLambda {
		st.drifted, st.cause = true, "score-mean"
		return true, true
	}
	if st.win.Len() == d.cfg.Window {
		rate := float64(st.winFlag) / float64(d.cfg.Window)
		if rate >= st.baselineRate+d.cfg.RateMargin {
			st.drifted, st.cause = true, "anomaly-rate"
			return true, true
		}
	}
	return true, false
}

// Reset discards the baseline, the window, and the latched verdict, so the
// detector re-warms on post-swap traffic. The sampling gate's phase is kept.
func (d *Detector) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.st = driftState{win: retain.NewRing[sample](d.cfg.Window)}
}

// DriftState is a point-in-time view of the detector for monitoring.
type DriftState struct {
	// Samples is the number of judgements folded (post-gate) since the last
	// Reset; Warm reports whether the baseline is established.
	Samples uint64
	Warm    bool
	// BaselineMean / BaselineRate are the warm-up estimates; WindowMean /
	// WindowRate the current sliding-window estimates (zero until warm).
	BaselineMean float64
	BaselineRate float64
	WindowMean   float64
	WindowRate   float64
	// PH is the accumulated Page–Hinkley statistic; Drifted the latched
	// verdict and Cause which signal confirmed it ("score-mean" or
	// "anomaly-rate").
	PH      float64
	Drifted bool
	Cause   string
	// LastSample is the runtime-stamped time of the newest folded judgement
	// (zero when the caller used Observe without a timestamp).
	LastSample time.Time
}

// State snapshots the detector.
func (d *Detector) State() DriftState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &d.st
	out := DriftState{
		Samples:      st.samples,
		Warm:         st.warm,
		BaselineMean: st.baselineMean,
		BaselineRate: st.baselineRate,
		PH:           st.ph,
		Drifted:      st.drifted,
		Cause:        st.cause,
		LastSample:   st.lastSample,
	}
	if n := st.win.Len(); n > 0 {
		out.WindowMean = st.winSum / float64(n)
		out.WindowRate = float64(st.winFlag) / float64(n)
	}
	return out
}
