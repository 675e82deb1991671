package detect

import "adprom/internal/sqlchan"

// The fused judge combines the call-window HMM channel and the SQL-behaviour
// channel (internal/sqlchan) into one verdict. Both channels are calibrated
// the same way — threshold = worst training window minus a slack — so their
// scores compare on a common footing: each channel's *anomaly margin* is
//
//	margin = threshold − score
//
// positive when the channel's own threshold is crossed. The fused score is
// the weighted sum of the latest margins (log-linear fusion of the two
// window likelihoods), and the decision rule is an OR-escalation:
//
//	flag if hmmMargin > 0            (the HMM channel fired)
//	  or if sqlMargin > 0            (the SQL channel fired)
//	  or if fused > −EscalationSlack (both channels jointly near-threshold)
//
// Every alert names the channel(s) whose rule fired in Alert.Channels, so a
// flag always says which evidence raised it. With non-negative weights the
// fused score is monotone in each margin: raising either channel's anomaly
// can never un-flag a window (see the property tests).

// Channel provenance names recorded in Alert.Channels and
// obsv.Decision.Channels.
const (
	// ChannelHMM marks an alert whose call-window score crossed the HMM
	// threshold.
	ChannelHMM = "hmm"
	// ChannelSQL marks an alert whose query-window score crossed the SQL
	// channel threshold.
	ChannelSQL = "sql"
	// ChannelFused marks an alert raised (or co-signed) by the weighted
	// fusion rule.
	ChannelFused = "fusion"
)

// ChannelNames lists the provenance channels in metric index order — the
// order metrics.Counters.AddChannelAlert and the adprom_channel_alerts_total
// family use.
var ChannelNames = [...]string{ChannelHMM, ChannelSQL, ChannelFused}

// ChannelIndex maps a provenance channel name to its metric index, -1 for
// unknown names.
func ChannelIndex(name string) int {
	for i, n := range ChannelNames {
		if n == name {
			return i
		}
	}
	return -1
}

// Fusion defaults.
const (
	// DefaultChannelWeight is the per-channel weight when unset.
	DefaultChannelWeight = 0.5
	// DefaultEscalationSlack is how far inside both thresholds the weighted
	// margin may reach and still escalate: jointly-suspicious windows whose
	// fused margin exceeds −DefaultEscalationSlack are flagged even when
	// neither channel crossed its own threshold.
	DefaultEscalationSlack = 0.05
)

// FusionConfig tunes the fused judge. The zero value selects the defaults
// (equal 0.5 weights, 0.05 escalation slack).
type FusionConfig struct {
	// HMMWeight and SQLWeight are the non-negative log-linear fusion
	// weights; 0 selects the 0.5 default, negatives are clamped to 0.
	HMMWeight float64
	SQLWeight float64
	// EscalationSlack sets the fused-escalation rule: fire when the
	// weighted margin exceeds −EscalationSlack. 0 selects the 0.05 default;
	// a negative value disables fused escalation entirely, leaving the pure
	// OR of the per-channel thresholds.
	EscalationSlack float64
}

func (c FusionConfig) withDefaults() FusionConfig {
	if c.HMMWeight == 0 {
		c.HMMWeight = DefaultChannelWeight
	}
	if c.SQLWeight == 0 {
		c.SQLWeight = DefaultChannelWeight
	}
	if c.HMMWeight < 0 {
		c.HMMWeight = 0
	}
	if c.SQLWeight < 0 {
		c.SQLWeight = 0
	}
	if c.EscalationSlack == 0 {
		c.EscalationSlack = DefaultEscalationSlack
	}
	return c
}

// Fuse returns the weighted fused anomaly margin. Monotone non-decreasing
// in both arguments (the weights are non-negative after defaulting).
func (c FusionConfig) Fuse(hmmMargin, sqlMargin float64) float64 {
	return c.HMMWeight*hmmMargin + c.SQLWeight*sqlMargin
}

// Escalates reports whether a fused margin triggers the escalation rule.
func (c FusionConfig) Escalates(fused float64) bool {
	return c.EscalationSlack >= 0 && fused > -c.EscalationSlack
}

// noteHMM records an HMM window's score and threshold and evaluates fused
// escalation. Without an SQL channel it is a no-op returning (false, 0), so
// the single-channel judge paths are untouched.
func (e *Engine) noteHMM(score float64) (fusedFired bool, fused float64) {
	if e.sqlScorer == nil {
		return false, 0
	}
	e.lastHMMScore, e.lastHMMThreshold = score, e.threshold
	e.hmmSeen = true
	return e.fusedState()
}

// fusedState computes the weighted fused margin from the latest per-channel
// margins. Escalation requires both channels to have judged a window since
// the last window reset — a single channel's evidence alone is the OR rule's
// business, and fusing against a phantom zero margin would double-count it.
func (e *Engine) fusedState() (fusedFired bool, fused float64) {
	var h, s float64
	if e.hmmSeen {
		h = e.lastHMMThreshold - e.lastHMMScore
	}
	if e.sqlSeen {
		s = e.lastSQLThreshold - e.lastSQLScore
	}
	fused = e.fusion.Fuse(h, s)
	if !e.hmmSeen || !e.sqlSeen {
		return false, fused
	}
	return e.fusion.Escalates(fused), fused
}

// stampChannels records provenance on an HMM-window alert: which channel
// rules fired, the SQL channel's latest judgement, and the fused margin. A
// no-op without an SQL channel, so single-channel alerts stay bit-identical.
func (e *Engine) stampChannels(a *Alert, score, fused float64, fusedFired bool) {
	if e.sqlScorer == nil {
		return
	}
	if score < e.threshold {
		a.Channels = append(a.Channels, ChannelHMM)
	}
	if fusedFired {
		a.Channels = append(a.Channels, ChannelFused)
	}
	if e.sqlSeen {
		a.SQLScore = e.lastSQLScore
		a.SQLThreshold = e.lastSQLThreshold
	}
	if e.hmmSeen && e.sqlSeen {
		a.FusedScore = fused
	}
}

// judgeSQLWindow classifies a completed (or flushed partial) SQL-channel
// window: the verdict's per-query score against the SQL profile's calibrated
// threshold, plus the fused escalation rule. c is the query-bearing call
// whose observation completed the window. Flagged windows carry the window's
// query signatures as Alert.Window, the HMM's latest judgement as
// Score/Threshold once it has judged a window, and upgrade to DL when the
// window touched a sensitive column or the triggering call outputs targeted
// data.
func (e *Engine) judgeSQLWindow(seq int, c *windowCall, v sqlchan.Verdict) (Alert, bool) {
	e.sqlSeen = true
	e.lastSQLScore, e.lastSQLThreshold = v.Score, v.Threshold
	fusedFired, fused := e.fusedState()
	sqlFired := v.Score < v.Threshold
	e.reportJudgement(ChannelSQL, seq, v.Score, v.Threshold, 0, fused, fusedFired, sqlFired || fusedFired)
	if !sqlFired && !fusedFired {
		return Alert{}, false
	}
	a := Alert{
		Flag:         FlagAnomalous,
		Seq:          seq,
		Label:        c.Label,
		Caller:       c.Caller,
		SQLScore:     v.Score,
		SQLThreshold: v.Threshold,
		Window:       e.sqlScorer.AppendWindow(nil),
	}
	if sqlFired {
		a.Channels = append(a.Channels, ChannelSQL)
	}
	if fusedFired {
		a.Channels = append(a.Channels, ChannelFused)
	}
	if e.hmmSeen {
		a.Score, a.Threshold = e.lastHMMScore, e.lastHMMThreshold
		a.FusedScore = fused
	}
	if v.Sensitive {
		a.Flag = FlagDL
	}
	e.attachLeak(&a, c)
	return a, true
}
