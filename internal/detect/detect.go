// Package detect implements AD-PROM's Detection Engine (paper §IV-B4,
// §IV-D): it receives n-length call sequences from the Calls Collector,
// scores them against the trained profile, and flags anomalies to the
// security administrator.
//
// Alerts carry the paper's four flags: Normal, Anomalous (a low-probability
// window with no TD output), DL (a low-probability window containing an
// output of targeted data — connected to its source query origins), and
// OutOfContext (a legitimate library call issued from a function that never
// issues it).
package detect

import (
	"encoding/json"
	"fmt"

	"adprom/internal/collector"
	"adprom/internal/hmm"
	"adprom/internal/interp"
	"adprom/internal/profile"
	"adprom/internal/sqlchan"
)

// Flag classifies an observation.
type Flag int

// The paper's alert taxonomy (§V-C).
const (
	FlagNormal Flag = iota
	FlagAnomalous
	FlagDL
	FlagOutOfContext
)

func (f Flag) String() string {
	switch f {
	case FlagNormal:
		return "Normal"
	case FlagAnomalous:
		return "Anomalous"
	case FlagDL:
		return "DL"
	case FlagOutOfContext:
		return "OutOfContext"
	default:
		return fmt.Sprintf("Flag(%d)", int(f))
	}
}

// MarshalJSON serialises the flag as its name ("DL", "Anomalous", …) so
// alert sinks and logs stay readable; unknown values fall back to the
// numeric form Flag(n).
func (f Flag) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.String())
}

// UnmarshalJSON accepts both the name form produced by MarshalJSON and the
// bare integers older sinks wrote.
func (f *Flag) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		switch name {
		case "Normal":
			*f = FlagNormal
		case "Anomalous":
			*f = FlagAnomalous
		case "DL":
			*f = FlagDL
		case "OutOfContext":
			*f = FlagOutOfContext
		default:
			var n int
			if _, err := fmt.Sscanf(name, "Flag(%d)", &n); err != nil {
				return fmt.Errorf("detect: unknown flag %q", name)
			}
			*f = Flag(n)
		}
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("detect: flag must be a name or integer: %s", data)
	}
	*f = Flag(n)
	return nil
}

// Alert is one detection-engine finding.
type Alert struct {
	Flag Flag
	// Seq is the index of the triggering call in the monitored stream.
	Seq int
	// Label and Caller identify the triggering call.
	Label  string
	Caller string
	// Score and Threshold explain probability-based alerts (per-symbol log
	// probability): the flagged HMM window's, or on an SQL-channel alert the
	// HMM's most recent window judgement since the last window reset. Both
	// are zero for OutOfContext alerts and for SQL-channel alerts raised
	// before the HMM judged a window.
	Score     float64
	Threshold float64
	// ScoreErrorBound bounds |Score − exact score| when the engine runs an
	// approximate scorer mode (hmm.ScorerTopK), on the same per-symbol scale
	// as Score. It is 0 in exact mode and +Inf when the pruned window lost
	// all probability mass (the bound is vacuous but Score < threshold still
	// holds exactly).
	ScoreErrorBound float64 `json:",omitempty"`
	// Window is the flagged call sequence — call labels for HMM-window and
	// OutOfContext alerts, query signatures for SQL-channel alerts.
	Window []string
	// Origins links a DL alert to the queries whose data leaked — the
	// "connected to source" property of Table V.
	Origins []interp.Origin

	// Channels names every detection channel whose rule this alert crossed
	// (ChannelHMM, ChannelSQL, ChannelFused). It is nil on engines running
	// without an SQL channel, where the HMM is the only judge.
	Channels []string `json:",omitempty"`
	// SQLScore and SQLThreshold carry the SQL channel's most recent
	// query-window judgement (per-query log-likelihood) at alert time; both
	// are zero without an SQL channel or before its first judged window.
	SQLScore     float64 `json:",omitempty"`
	SQLThreshold float64 `json:",omitempty"`
	// FusedScore is the weighted fused anomaly margin at judgement time,
	// recorded once both channels have judged at least one window.
	FusedScore float64 `json:",omitempty"`
}

// Engine performs streaming detection for one monitored execution. Window
// scoring is incremental: the engine owns a hmm.StreamScorer that maintains
// the forward variables of every in-flight window over the profile's shared
// read-only scoring view, so observing a call advances each in-flight window
// by one forward step and never allocates. Once the window is full that is
// W−1 steps per call; in exact mode they run fused, about four windows per
// pass over the transition slab (see hmm.StreamScorer).
type Engine struct {
	p         *profile.Profile
	threshold float64
	winLen    int
	mode      hmm.ScorerMode
	stream    *hmm.StreamScorer
	window    []windowCall
	winStart  int // ring start within window when full
	seq       int
	// alerts holds the alerts raised since the previous Flush, which hands
	// them over and forgets them.
	alerts []Alert

	// Append-only arenas flagged windows carve their Window labels and leak
	// Origins from, so a batch with many alerts costs a few arena-growth
	// allocations instead of a few per alert. Exhausted arenas are abandoned
	// (their carved regions stay alive through the alerts) and replaced;
	// Flush drops both, so they never outgrow one flush's alerts.
	labelArena  []string
	originArena []interp.Origin

	// Administrator-whitelisted (label, caller) pairs (see adaptive.go).
	oocAllowed map[[2]string]bool

	// judgeHook receives every completed-window judgement (see JudgeFunc).
	judgeHook JudgeFunc

	// Sensitive-touch tracking for the risk-aware shedding tier: sensitive
	// counts the calls seen so far that output targeted data (leak origins or
	// a profile leak label) or carry a label the administrator marked
	// sensitive (e.g. derived from query signatures touching protected
	// tables via qsig.SensitiveLabels).
	sensitive       int
	sensitiveLabels map[string]bool

	// Second-channel state (see fusion.go). Every branch below is gated on
	// sqlScorer != nil, so an engine without an SQL channel executes exactly
	// the single-channel code path — the disabled-channel bit-identity the
	// property tests pin down.
	sqlScorer *sqlchan.Scorer
	fusion    FusionConfig
	// Latest per-channel verdicts since the last window reset, whose
	// threshold − score is the channel's anomaly margin and which are
	// stamped onto the other channel's alerts for provenance, and whether
	// each channel has judged a window since that reset.
	lastHMMScore, lastHMMThreshold float64
	lastSQLScore, lastSQLThreshold float64
	hmmSeen, sqlSeen               bool
	// The most recent query-bearing call, so a Flush-judged partial SQL
	// window can still name a triggering call.
	lastQuery windowCall
}

// windowCall is the part of an observed call that judging reads: the label
// and caller an alert names, and the origins a DL alert links to. The window
// ring holds only these, not whole calls.
type windowCall struct {
	Label, Caller string
	Origins       []interp.Origin
}

// Judgement is one completed-window verdict of either channel, the value the
// engine hands its judge hook: which channel judged, what it computed, and
// the fusion state at judgement time.
type Judgement struct {
	// Channel is ChannelHMM or ChannelSQL.
	Channel string
	// Seq is the index of the window's last call in the monitored stream.
	Seq int
	// Score, Threshold, and Bound are the judging channel's window score,
	// active threshold, and score-error bound (0 outside top-K HMM scoring).
	Score     float64
	Threshold float64
	Bound     float64
	// HMMMargin and SQLMargin are the latest per-channel anomaly margins
	// (threshold − score); the Seen flags report whether the channel has
	// judged a window since the last window reset.
	HMMMargin float64
	SQLMargin float64
	HMMSeen   bool
	SQLSeen   bool
	// Fused is the weighted fused margin; FusedFired whether the escalation
	// rule crossed. Both zero/false on single-channel engines.
	Fused      float64
	FusedFired bool
	// Flagged reports whether this judgement raised an alert.
	Flagged bool
}

// JudgeFunc receives every completed-window judgement of either channel,
// once per window in stream order, on the goroutine that is observing or
// flushing. The judgement is passed by value so handing it over never
// allocates. A JudgeFunc cannot fail the engine; one that panics panics the
// caller of Observe/Flush like any other engine panic.
type JudgeFunc func(Judgement)

// NewEngine builds an engine around a trained profile, using the profile's
// selected threshold and window length.
func NewEngine(p *profile.Profile) *Engine {
	return &Engine{p: p, threshold: p.Threshold, winLen: p.WindowLen}
}

// SetThreshold overrides the profile's threshold for this engine, as the
// facade's WithThreshold option and an administrator re-tuning a deployment
// do.
func (e *Engine) SetThreshold(t float64) { e.threshold = t }

// SetWindowLen overrides the profile's window length for this engine. It
// resets the current window; call it before observing.
func (e *Engine) SetWindowLen(n int) {
	if n > 0 && n != e.winLen {
		e.winLen = n
		e.stream = nil
	}
	e.ResetWindow()
}

// WindowLen returns the engine's active window length.
func (e *Engine) WindowLen() int { return e.winLen }

// SetScorerMode selects the scoring kernel (hmm.ScorerExact or
// hmm.ScorerTopK) for subsequent windows. Like SetWindowLen it resets the
// current window, so call it before observing. The mode, like the window
// length, survives Reset.
func (e *Engine) SetScorerMode(m hmm.ScorerMode) {
	if m != e.mode {
		e.mode = m
		e.stream = nil
	}
	e.ResetWindow()
}

// ScorerMode returns the engine's active scoring kernel mode.
func (e *Engine) ScorerMode() hmm.ScorerMode { return e.mode }

// SetSQLChannel attaches a second detection channel — a per-session SQL
// behaviour scorer — judged alongside the HMM under cfg's fusion rule; pass a
// nil scorer to detach it. Like the judge hook this is owner configuration,
// cleared by Reset and not carried by Adopt. The scorer is owned by the
// engine from here on: ResetWindow resets it at trace boundaries.
func (e *Engine) SetSQLChannel(s *sqlchan.Scorer, cfg FusionConfig) {
	e.sqlScorer = s
	e.fusion = cfg.withDefaults()
	e.hmmSeen, e.sqlSeen = false, false
	e.lastHMMScore, e.lastHMMThreshold = 0, 0
	e.lastSQLScore, e.lastSQLThreshold = 0, 0
	e.lastQuery = windowCall{}
}

// SQLChannel returns the attached SQL-channel scorer, nil when detached.
func (e *Engine) SQLChannel() *sqlchan.Scorer { return e.sqlScorer }

// ResetWindow clears the sliding window between monitored executions, so a
// window never straddles two program runs. Alerts not yet handed over by
// Flush are kept.
func (e *Engine) ResetWindow() {
	e.window = e.window[:0]
	e.winStart = 0
	if e.stream != nil {
		e.stream.Reset()
	}
	if e.sqlScorer != nil {
		e.sqlScorer.Reset()
		e.hmmSeen, e.sqlSeen = false, false
		e.lastHMMScore, e.lastHMMThreshold = 0, 0
		e.lastSQLScore, e.lastSQLThreshold = 0, 0
	}
}

// Reset returns the engine to its just-constructed state — window, sequence
// counter, pending alerts, threshold, and judge hook — so pooled
// engines can be recycled across sessions without reallocating their
// forward-variable buffers.
func (e *Engine) Reset() {
	e.ResetWindow()
	e.seq = 0
	e.alerts = nil
	e.labelArena, e.originArena = nil, nil
	e.threshold = e.p.Threshold
	e.oocAllowed = nil
	e.judgeHook = nil
	e.sensitive = 0
	e.sensitiveLabels = nil
	e.sqlScorer = nil
	e.fusion = FusionConfig{}
	e.hmmSeen, e.sqlSeen = false, false
	e.lastHMMScore, e.lastHMMThreshold = 0, 0
	e.lastSQLScore, e.lastSQLThreshold = 0, 0
	e.lastQuery = windowCall{}
}

// SetSensitiveLabels installs extra call labels counted as sensitive touches
// beyond the profile's leak labels; pass nil to remove them. Like the judge
// hook this is owner configuration, cleared by Reset and not carried by
// Adopt. The map is read, never written.
func (e *Engine) SetSensitiveLabels(labels map[string]bool) { e.sensitiveLabels = labels }

// SensitiveTouches returns the cumulative count of observed calls that touch
// sensitive data: calls carrying leak origins, calls whose label is a profile
// leak label, and calls whose label the administrator marked sensitive. The
// counter survives window resets and is carried across engine replacement by
// Adopt, so a stream owner can read deltas to drive per-session risk.
func (e *Engine) SensitiveTouches() int { return e.sensitive }

// noteSensitive folds one observed call into the sensitive-touch counter.
func (e *Engine) noteSensitive(c *collector.Call) {
	if len(c.Origins) > 0 || e.p.LeakLabels[c.Label] || e.sensitiveLabels[c.Label] {
		e.sensitive++
	}
}

// SetJudgeHook installs h, which receives every subsequent completed-window
// judgement; pass nil to remove it. See JudgeFunc.
func (e *Engine) SetJudgeHook(h JudgeFunc) { e.judgeHook = h }

// Adopt carries prev's sequence counter and sensitive-touch count into e, so
// that a stream owner replacing its engine at a trace boundary (the
// runtime's profile hot-swap upgrades sessions to the new generation when
// their window resets) numbers the stream continuously across the
// replacement. The boundary follows a Flush, which handed prev's alerts
// over, so there are none to carry. Window state is deliberately not
// carried — Adopt is only correct at a boundary where the window is empty —
// and neither are the adaptive-threshold whitelist or the judge hook, which
// the new owner reconfigures.
func (e *Engine) Adopt(prev *Engine) {
	if prev == nil {
		return
	}
	e.seq = prev.seq
	e.sensitive = prev.sensitive
}

// Threshold returns the active threshold.
func (e *Engine) Threshold() float64 { return e.threshold }

// Profile returns the profile the engine detects against.
func (e *Engine) Profile() *profile.Profile { return e.p }

// Observe processes one call and returns any alerts it raised: a batch of
// one.
func (e *Engine) Observe(c collector.Call) []Alert {
	return e.ObserveBatch([]collector.Call{c})
}

// ObserveBatch processes a run of calls from one stream in call order and
// returns the alerts they raised. Each call is folded in turn: the
// out-of-context check, the window ring, the incremental scorer (judging the
// window the moment it completes), then the SQL channel. Chunking is
// therefore invisible — any split of a stream raises the same alerts, scores
// and judge-hook invocations — and a batch saves its caller only the
// per-call dispatch. The calls slice is not retained; the window ring and
// alerts keep each call's label, caller and Origins.
func (e *Engine) ObserveBatch(calls []collector.Call) []Alert {
	// Alerts are appended straight into the pending alerts and the batch's
	// run of them returned, so raising many alerts costs amortised growth
	// instead of a second slice.
	histStart := len(e.alerts)
	if e.winLen > 0 && e.stream == nil {
		e.stream = e.p.NewStreamScorerMode(e.winLen, e.mode)
	}
	w := float64(e.winLen)
	for i := range calls {
		c := &calls[i]
		seq := e.seq
		e.seq++
		e.noteSensitive(c)

		// Out-of-context: a known label from an unexpected caller (unless the
		// administrator whitelisted the pair).
		if e.p.KnownLabel(c.Label) && !e.p.KnownCaller(c.Label, c.Caller) &&
			!e.oocAllowed[[2]string{c.Label, c.Caller}] {
			e.alerts = append(e.alerts, Alert{
				Flag:   FlagOutOfContext,
				Seq:    seq,
				Label:  c.Label,
				Caller: c.Caller,
			})
		}

		// Fold the call into the (ring-buffered) window of pending calls and
		// the incremental scorer; judge the window the moment it completes.
		wc := windowCall{Label: c.Label, Caller: c.Caller, Origins: c.Origins}
		if e.winLen > 0 {
			if len(e.window) < e.winLen {
				e.window = append(e.window, wc)
			} else {
				e.window[e.winStart] = wc
				if e.winStart++; e.winStart == e.winLen {
					e.winStart = 0
				}
			}
			if logp, done := e.stream.Push(e.p.SymbolOf(c.Label)); done {
				if a, flagged := e.judgeWindow(seq, logp/w, e.stream.LastBound()/w); flagged {
					e.alerts = append(e.alerts, a)
				}
			}
		}

		// Second channel: fold query-bearing calls into the SQL scorer and
		// judge its window when it completes, after this call's HMM judgement.
		if e.sqlScorer != nil && c.SQL != "" {
			e.lastQuery = wc
			if v, done := e.sqlScorer.Observe(c.SQL, c.Rows); done {
				if a, flagged := e.judgeSQLWindow(seq, &wc, v); flagged {
					e.alerts = append(e.alerts, a)
				}
			}
		}
	}
	if len(e.alerts) == histStart {
		return nil
	}
	return e.alerts[histStart:len(e.alerts):len(e.alerts)]
}

// Flush evaluates a final short window (a trace shorter than n) and hands
// over the alerts raised since the previous Flush, then forgets them and
// the arenas their windows were carved from. The returned slice is the
// caller's: the engine keeps no reference to it.
func (e *Engine) Flush() []Alert {
	if logp, n := partialScore(e.stream); n > 0 && n == len(e.window) {
		if a, flagged := e.judgeWindow(e.seq-1, logp/float64(n), e.stream.PartialBound()/float64(n)); flagged {
			e.alerts = append(e.alerts, a)
		}
	}
	// The SQL channel judges its partial window too: application runs issue
	// few queries, so the short-trace flush is where most of its detections
	// happen.
	if e.sqlScorer != nil {
		if v, done := e.sqlScorer.Flush(); done {
			last := e.lastQuery
			if a, flagged := e.judgeSQLWindow(e.seq-1, &last, v); flagged {
				e.alerts = append(e.alerts, a)
			}
		}
	}
	out := e.alerts
	e.alerts, e.labelArena, e.originArena = nil, nil, nil
	return out
}

func partialScore(st *hmm.StreamScorer) (float64, int) {
	if st == nil {
		return 0, 0
	}
	return st.Partial()
}

// Alerts returns the alerts raised since the previous Flush.
func (e *Engine) Alerts() []Alert { return e.alerts }

// judgeWindow classifies the current window — full, or the partial window
// Flush judges — given its per-symbol score and error bound from the
// incremental scorer. The window of pending calls is a ring: index winStart
// is the oldest call once the ring is full. A flagged window carves its label
// copies and leak origins from the engine's arenas instead of allocating
// slices of its own.
func (e *Engine) judgeWindow(seq int, score, bound float64) (Alert, bool) {
	fusedFired, fused := e.noteHMM(score)
	if score >= e.threshold && !fusedFired {
		e.reportJudgement(ChannelHMM, seq, score, e.threshold, bound, fused, false, false)
		return Alert{}, false
	}
	n := len(e.window)
	// An exhausted arena is abandoned, not copied — the alerts already carved
	// from it keep it alive — and replaced by one twice its size; the first
	// holds a single window.
	if cap(e.labelArena)-len(e.labelArena) < n {
		e.labelArena = make([]string, 0, max(2*cap(e.labelArena), e.winLen))
	}
	start := len(e.labelArena)
	need := 0
	for i := 0; i < n; i++ {
		c := &e.window[(e.winStart+i)%n]
		e.labelArena = append(e.labelArena, c.Label)
		need += len(c.Origins)
	}
	last := &e.window[(e.winStart+n-1)%n]
	a := Alert{
		Flag:            FlagAnomalous,
		Seq:             seq,
		Label:           last.Label,
		Caller:          last.Caller,
		Score:           score,
		Threshold:       e.threshold,
		ScoreErrorBound: bound,
		Window:          e.labelArena[start : start+n : start+n],
	}
	// need upper-bounds the window's deduplicated origins, so reserving it
	// up front means the carve never regrows (and so copies) mid-window.
	if need > 0 {
		if cap(e.originArena)-len(e.originArena) < need {
			e.originArena = make([]interp.Origin, 0, max(2*cap(e.originArena), need))
		}
		ostart := len(e.originArena)
		a.Origins = e.originArena[ostart:ostart:cap(e.originArena)]
	}
	for i := 0; i < n; i++ {
		e.attachLeak(&a, &e.window[(e.winStart+i)%n])
	}
	if len(a.Origins) == 0 {
		a.Origins = nil
	} else {
		e.originArena = e.originArena[:len(e.originArena)+len(a.Origins)]
		a.Origins = a.Origins[:len(a.Origins):len(a.Origins)]
	}
	e.stampChannels(&a, score, fused, fusedFired)
	e.reportJudgement(ChannelHMM, seq, score, e.threshold, bound, fused, fusedFired, true)
	return a, true
}

// attachLeak upgrades an alert to DL when the window call c outputs targeted
// data, attaching the origins of the leaked values once each, in call order.
// Windows are short and origins few, so dedup is a linear scan of what is
// already attached rather than a map.
func (e *Engine) attachLeak(a *Alert, c *windowCall) {
	if len(c.Origins) == 0 && !e.p.LeakLabels[c.Label] {
		return
	}
	a.Flag = FlagDL
outer:
	for _, o := range c.Origins {
		for _, have := range a.Origins {
			if have == o {
				continue outer
			}
		}
		a.Origins = append(a.Origins, o)
	}
}

// reportJudgement hands one window judgement to the judge hook, with both
// channels' latest margins and the fusion state. A single-channel engine
// folds no margins, so its HMM margin is derived from the judgement itself.
func (e *Engine) reportJudgement(channel string, seq int, score, threshold, bound, fused float64, fusedFired, flagged bool) {
	if e.judgeHook == nil {
		return
	}
	hmmMargin := e.lastHMMThreshold - e.lastHMMScore
	if e.sqlScorer == nil {
		hmmMargin = threshold - score
	}
	e.judgeHook(Judgement{
		Channel: channel, Seq: seq,
		Score: score, Threshold: threshold, Bound: bound,
		HMMMargin: hmmMargin, SQLMargin: e.lastSQLThreshold - e.lastSQLScore,
		HMMSeen: e.hmmSeen, SQLSeen: e.sqlSeen,
		Fused: fused, FusedFired: fusedFired, Flagged: flagged,
	})
}
