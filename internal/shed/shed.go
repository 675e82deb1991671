// Package shed is the risk-aware admission tier between ingest and the
// detection worker pool: when a worker's queue saturates, it sheds the
// sessions least likely to be leaking instead of the newest call to arrive.
//
// The design follows Grushka-Cohen et al. ("Sampling High Throughput Data
// for Anomaly Detection of Data-Base Activity"): under throughput pressure,
// sample by risk rather than drop blindly — always score the sessions most
// likely to be anomalous, probabilistically thin the provably boring ones.
// Each session carries a risk score maintained from live signals the runtime
// already produces:
//
//   - recent alerts: a session that flagged within the last AlertMemory
//     windows has risk 1 and is never shed;
//   - score drift: a Page–Hinkley accumulator over the session's window
//     scores, so a session whose scores are sliding toward the threshold
//     gains risk before it ever alerts;
//   - sensitive touches: calls that output targeted data or carry an
//     administrator-marked sensitive label (e.g. derived from query
//     signatures against protected tables, internal/qsig);
//   - starvation: every consecutive shed decision raises risk, so no
//     session is starved forever — after StarveLimit consecutive sheds the
//     session reaches the guarantee band and is scored.
//
// Admission is deterministic given Config.Seed: the probabilistic thinning
// draws its uniform variate from a splitmix64 hash of (seed, session id,
// per-session decision index), never from a global RNG or the clock, so a
// chaos test replaying the same offered load observes the same decisions.
//
// The controller engages only when queue occupancy crosses HighWater and
// disengages when it falls back under LowWater (hysteresis, so the shed/no-
// shed boundary does not thrash), and while engaged it scales shedding
// pressure with occupancy: a mildly over-watermark queue sheds only the
// lowest-risk sessions, a full queue sheds everything below the guarantee
// band. Alongside the shed counters it maintains the risk mass admitted and
// shed, whose ratio is the estimated miss probability — the fraction of
// expected alert evidence the degradation gave up — surfaced in Stats,
// Prometheus, and /metrics.
package shed

import (
	"hash/fnv"
	"math"
	"sync/atomic"
)

// Config tunes the admission controller. The zero value of every field
// selects the default documented on it; a zero Config is usable as-is.
type Config struct {
	// HighWater and LowWater are the queue-occupancy hysteresis thresholds
	// (fraction of per-worker pending-call capacity). Shedding engages when
	// occupancy reaches HighWater (default 0.75) and disengages when it
	// falls below LowWater (default 0.40).
	HighWater float64
	LowWater  float64

	// GuaranteeRisk is the risk score at or above which a session is always
	// admitted, with blocking backpressure if needed (default 0.90).
	// Alert-bearing sessions have risk 1 and always clear it.
	GuaranteeRisk float64

	// MinAdmit floors the admission probability of even the least risky
	// session under the heaviest load (default 0.05), so every session keeps
	// a trickle of scored windows feeding its risk signals.
	MinAdmit float64

	// AlertMemory is how many judged windows an alert keeps the session in
	// the never-shed band (default 64). SensitiveMemory is the equivalent
	// decay horizon for sensitive-table touches (default 32), which raise
	// risk rather than guarantee admission.
	AlertMemory     uint64
	SensitiveMemory uint64

	// DriftLambda and DriftDelta parameterise the per-session Page–Hinkley
	// drift component: the accumulator grows when window scores run more
	// than DriftDelta (default 0.05) below the session's running mean, and
	// contributes risk proportionally to accumulator/DriftLambda (default
	// 2.0), saturating at full weight.
	DriftLambda float64
	DriftDelta  float64

	// StarveLimit is the number of consecutive shed decisions after which a
	// session's starvation component alone lifts it into the guarantee band
	// (default 64), bounding time-since-last-scored for every session.
	StarveLimit uint64

	// Seed makes shed decisions reproducible: the same seed, session ids,
	// and offered sequence yield the same admissions. Zero is a valid seed.
	Seed uint64

	// SensitiveLabels marks extra call labels as sensitive touches beyond
	// the profile's leak labels; typically derived from query signatures
	// against protected tables (qsig.SensitiveLabels). The runtime plumbs
	// this to each session's detection engine.
	SensitiveLabels map[string]bool
}

// Defaults for zero Config fields.
const (
	defaultHighWater     = 0.75
	defaultLowWater      = 0.40
	defaultGuaranteeRisk = 0.90
	defaultMinAdmit      = 0.05
	defaultAlertMemory   = 64
	defaultSensMemory    = 32
	defaultDriftLambda   = 2.0
	defaultDriftDelta    = 0.05
	defaultStarveLimit   = 64

	// warmWindows is how many judged windows build the running-mean baseline
	// before the Page–Hinkley accumulator starts charging.
	warmWindows = 8

	// riskFloor is the baseline risk of a quiet, fully-profiled session;
	// unseenRisk is the extra risk of a session that has never completed a
	// window (unknown is not safe).
	riskFloor  = 0.02
	unseenRisk = 0.30

	// Weights of the decaying sensitive-touch and saturating drift
	// components in the composite risk score.
	sensitiveWeight = 0.40
	driftWeight     = 0.50

	// riskMicro is the fixed-point scale risk mass accumulates at.
	riskMicro = 1e6
)

func (c Config) withDefaults() Config {
	if c.HighWater <= 0 || c.HighWater > 1 {
		c.HighWater = defaultHighWater
	}
	if c.LowWater <= 0 || c.LowWater >= c.HighWater {
		c.LowWater = defaultLowWater
		if c.LowWater >= c.HighWater {
			c.LowWater = c.HighWater / 2
		}
	}
	if c.GuaranteeRisk <= 0 || c.GuaranteeRisk > 1 {
		c.GuaranteeRisk = defaultGuaranteeRisk
	}
	if c.MinAdmit <= 0 || c.MinAdmit > 1 {
		c.MinAdmit = defaultMinAdmit
	}
	if c.AlertMemory == 0 {
		c.AlertMemory = defaultAlertMemory
	}
	if c.SensitiveMemory == 0 {
		c.SensitiveMemory = defaultSensMemory
	}
	if c.DriftLambda <= 0 {
		c.DriftLambda = defaultDriftLambda
	}
	if c.DriftDelta <= 0 {
		c.DriftDelta = defaultDriftDelta
	}
	if c.StarveLimit == 0 {
		c.StarveLimit = defaultStarveLimit
	}
	return c
}

// SessionRisk is the per-session risk state. The judgement-side fields
// (windows, alerts, drift) have a single writer — the worker goroutine the
// session is pinned to — while Risk and the decision counter are read and
// advanced from producer goroutines, so every field is atomic.
type SessionRisk struct {
	c      *Controller
	idHash uint64

	windows       atomic.Uint64 // completed-window judgements
	lastAlert     atomic.Uint64 // 1-based window index of the last alert, 0 = never
	lastSensitive atomic.Uint64 // 1-based window index of the last sensitive touch
	meanBits      atomic.Uint64 // running mean of window scores (float64 bits)
	phBits        atomic.Uint64 // Page–Hinkley accumulator (float64 bits)

	decisions  atomic.Uint64 // admission decisions taken (drives the hash)
	consecShed atomic.Uint64 // consecutive shed decisions (starvation signal)
	shedCalls  atomic.Uint64 // lifetime calls shed from this session
}

// NoteJudgement folds one completed-window judgement (per-symbol score and
// verdict) into the session's risk signals. Called from the session's worker.
func (sr *SessionRisk) NoteJudgement(score float64, flagged bool) {
	w := sr.windows.Add(1)
	if flagged {
		sr.lastAlert.Store(w)
		// An alert resets the drift hunt: the anomaly is already caught.
		sr.phBits.Store(0)
		return
	}
	mean := math.Float64frombits(sr.meanBits.Load())
	if w <= warmWindows {
		// Build the baseline; charge no drift during warm-up.
		sr.meanBits.Store(math.Float64bits(mean + (score-mean)/float64(w)))
		return
	}
	cfg := &sr.c.cfg
	ph := math.Float64frombits(sr.phBits.Load())
	ph += mean - score - cfg.DriftDelta
	if ph < 0 {
		ph = 0
	}
	// Cap the accumulator so a long excursion cannot take unboundedly long
	// to recover from once scores normalise.
	if limit := 4 * cfg.DriftLambda; ph > limit {
		ph = limit
	}
	sr.phBits.Store(math.Float64bits(ph))
	sr.meanBits.Store(math.Float64bits(mean + (score-mean)/float64(w)))
}

// NoteSensitive records that the session just touched sensitive data,
// attributed to the window in progress. Called from the session's worker.
func (sr *SessionRisk) NoteSensitive() {
	sr.lastSensitive.Store(sr.windows.Load() + 1)
}

// ShedCalls returns the session's lifetime shed-call count.
func (sr *SessionRisk) ShedCalls() uint64 { return sr.shedCalls.Load() }

// Risk computes the session's composite risk score in [0, 1]. A recent alert
// pins it to 1; otherwise decaying sensitive-touch recency, saturating score
// drift, starvation pressure, and a never-scored bump stack on a small floor.
func (sr *SessionRisk) Risk() float64 {
	cfg := &sr.c.cfg
	w := sr.windows.Load()
	if la := sr.lastAlert.Load(); la > 0 && w < la+cfg.AlertMemory {
		return 1
	}
	r := riskFloor
	if w == 0 {
		r += unseenRisk
	}
	if ls := sr.lastSensitive.Load(); ls > 0 && w < ls+cfg.SensitiveMemory {
		var age float64
		if w > ls {
			age = float64(w-ls) / float64(cfg.SensitiveMemory)
		}
		r += sensitiveWeight * (1 - age)
	}
	if ph := math.Float64frombits(sr.phBits.Load()); ph > 0 {
		r += driftWeight * min(1, ph/cfg.DriftLambda)
	}
	if cs := sr.consecShed.Load(); cs > 0 {
		r += float64(cs) / float64(cfg.StarveLimit)
	}
	return min(r, 1)
}

// Decision is the outcome of one admission check.
type Decision struct {
	// Admit reports whether the op should be enqueued. Guaranteed marks a
	// high-risk admission the caller must enqueue with blocking backpressure
	// rather than shedding on a full channel.
	Admit      bool
	Guaranteed bool
	// Engaged reports whether the controller was shedding at decision time.
	Engaged bool
	// Risk is the session's risk score, P the admission probability applied
	// (1 while disengaged or guaranteed), and Occupancy the worker-queue
	// occupancy the decision saw.
	Risk      float64
	P         float64
	Occupancy float64
}

// Controller is the admission controller shared by all producers of one
// runtime. All methods are safe for concurrent use.
type Controller struct {
	cfg     Config
	engaged []atomic.Bool // per-worker hysteresis latch

	shedDecisions  atomic.Uint64
	admitDecisions atomic.Uint64
	shedCalls      atomic.Uint64
	riskShedMicro  atomic.Uint64 // risk mass shed, in riskMicro units per call
	riskAdmitMicro atomic.Uint64 // risk mass admitted
}

// New builds a controller for a pool of workers (per-worker hysteresis
// state). Zero Config fields take their documented defaults.
func New(cfg Config, workers int) *Controller {
	if workers < 1 {
		workers = 1
	}
	return &Controller{cfg: cfg.withDefaults(), engaged: make([]atomic.Bool, workers)}
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// NewSession creates the risk state for one session. The id is hashed with
// FNV-1a, a fixed function, so decisions replay identically across processes.
func (c *Controller) NewSession(id string) *SessionRisk {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &SessionRisk{c: c, idHash: h.Sum64()}
}

// Decide runs one admission check for a session against the occupancy of its
// worker's queue (pending calls / capacity). It updates the worker's
// hysteresis latch as a side effect. The caller reports the outcome with
// Admitted or Shed once the enqueue attempt resolves.
func (c *Controller) Decide(sr *SessionRisk, worker int, occ float64) Decision {
	if worker < 0 || worker >= len(c.engaged) {
		worker = 0
	}
	eng := &c.engaged[worker]
	if eng.Load() {
		if occ < c.cfg.LowWater {
			eng.Store(false)
		}
	} else if occ >= c.cfg.HighWater {
		eng.Store(true)
	}
	d := Decision{Risk: sr.Risk(), Occupancy: occ, Engaged: eng.Load()}
	// The guarantee holds whether or not the latch is engaged: a disengaged
	// admission still has to fit the call budget, which other producers can
	// fill before this op reaches the queue.
	if d.Risk >= c.cfg.GuaranteeRisk {
		d.Admit, d.Guaranteed, d.P = true, true, 1
		return d
	}
	if !d.Engaged {
		d.Admit, d.P = true, 1
		return d
	}
	// Severity ramps from 0 at LowWater to 1 at full occupancy, and scales
	// how hard low risk is punished: p = 1 − severity·(1 − risk), floored.
	sev := (occ - c.cfg.LowWater) / (1 - c.cfg.LowWater)
	sev = max(0, min(1, sev))
	p := 1 - sev*(1-d.Risk)
	if p < c.cfg.MinAdmit {
		p = c.cfg.MinAdmit
	}
	d.P = p
	d.Admit = unit(c.cfg.Seed, sr.idHash, sr.decisions.Add(1)) < p
	return d
}

// Admitted records that calls from a decided op were enqueued for scoring.
func (c *Controller) Admitted(sr *SessionRisk, d Decision, calls int) {
	if calls <= 0 {
		return
	}
	c.admitDecisions.Add(1)
	c.riskAdmitMicro.Add(uint64(d.Risk * riskMicro * float64(calls)))
	sr.consecShed.Store(0)
}

// Shed records that calls from a decided op were rejected — either by the
// probabilistic gate or because the queue budget could not fit them.
func (c *Controller) Shed(sr *SessionRisk, d Decision, calls int) {
	if calls <= 0 {
		return
	}
	c.shedDecisions.Add(1)
	c.shedCalls.Add(uint64(calls))
	c.riskShedMicro.Add(uint64(d.Risk * riskMicro * float64(calls)))
	sr.consecShed.Add(1)
	sr.shedCalls.Add(uint64(calls))
}

// Snapshot is a point-in-time view of the controller.
type Snapshot struct {
	// Engaged reports whether any worker's hysteresis latch is currently on.
	Engaged bool
	// ShedCalls is the total calls shed; ShedDecisions and AdmitDecisions
	// count admission checks by outcome.
	ShedCalls      uint64
	ShedDecisions  uint64
	AdmitDecisions uint64
	// RiskShed and RiskAdmitted are the per-call risk mass shed and scored.
	RiskShed     float64
	RiskAdmitted float64
	// MissProbability estimates the fraction of expected alert evidence the
	// shedding gave up: shed risk mass over total offered risk mass.
	MissProbability float64
}

// Snapshot reads the controller's counters. Fields are individually atomic;
// the snapshot is not a single atomic cut, which is fine for monitoring.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		ShedCalls:      c.shedCalls.Load(),
		ShedDecisions:  c.shedDecisions.Load(),
		AdmitDecisions: c.admitDecisions.Load(),
		RiskShed:       float64(c.riskShedMicro.Load()) / riskMicro,
		RiskAdmitted:   float64(c.riskAdmitMicro.Load()) / riskMicro,
	}
	for i := range c.engaged {
		if c.engaged[i].Load() {
			s.Engaged = true
			break
		}
	}
	if total := s.RiskShed + s.RiskAdmitted; total > 0 {
		s.MissProbability = s.RiskShed / total
	}
	return s
}

// unit maps (seed, session, decision index) to a uniform variate in [0, 1)
// with a splitmix64 finaliser. Fully deterministic: replaying the same
// offered sequence under the same seed replays the same admissions.
func unit(seed, id, n uint64) float64 {
	x := seed ^ (id * 0x9e3779b97f4a7c15) ^ (n * 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
