package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"adprom"
	"adprom/internal/detect"
)

// refResult is the sequential reference replay's outcome.
type refResult struct {
	mismatches  int
	firstDiff   string
	calls       int
	callsPerSec float64
}

// newMonitor builds the facade Monitor a tenant's shards are equivalent to.
func newMonitor(tr *tenantRT) *adprom.Monitor {
	return adprom.NewMonitor(tr.prof, adprom.WithSQLChannel(tr.sql), adprom.WithFusion(fusion))
}

// referenceCheck replays every session's runs, in the order its flushes or
// closes returned, through a sequential facade Monitor on one goroutine (one
// ObserveTrace per run: reset window, score, flush) and compares the alerts
// with those the stack delivered to its alert function, per session and in
// order. A warm-up pass over the first sessions precedes the timed pass.
// got holds the delivered alerts by session and is consumed.
func referenceCheck(tenants []*tenantRT, sessions []*sessState, got map[string][]detect.Alert) refResult {
	replay := func(ss *sessState) *adprom.Monitor {
		m := newMonitor(tenants[ss.tenant])
		for _, r := range ss.runs {
			m.ObserveTrace(r.pt.calls)
		}
		return m
	}
	warm := 0
	for _, ss := range sessions {
		if warm > 20000 {
			break
		}
		replay(ss)
		for _, r := range ss.runs {
			warm += len(r.pt.calls)
		}
	}

	res := refResult{}
	want := make([][]detect.Alert, len(sessions))
	start := time.Now()
	for i, ss := range sessions {
		want[i] = replay(ss).Alerts()
	}
	elapsed := time.Since(start)
	for i, ss := range sessions {
		for _, r := range ss.runs {
			res.calls += len(r.pt.calls)
		}
		if d := diffAlerts(want[i], got[ss.id]); d != "" {
			res.mismatches++
			if res.firstDiff == "" {
				res.firstDiff = fmt.Sprintf("session %s: %s", ss.id, d)
			}
		}
		delete(got, ss.id)
	}
	for id := range got {
		res.mismatches++
		if res.firstDiff == "" {
			res.firstDiff = fmt.Sprintf("alerts for unknown session %s", id)
		}
	}
	res.callsPerSec = float64(res.calls) / elapsed.Seconds()
	return res
}

// diffAlerts describes the first difference between two alert histories in
// sequence number, flag, channels and score bits; "" when they agree.
func diffAlerts(want, got []detect.Alert) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d alerts, the Monitor raised %d", len(got), len(want))
	}
	for i := range want {
		w, g := &want[i], &got[i]
		switch {
		case w.Seq != g.Seq, w.Flag != g.Flag, !slices.Equal(w.Channels, g.Channels),
			math.Float64bits(w.Score) != math.Float64bits(g.Score),
			math.Float64bits(w.Threshold) != math.Float64bits(g.Threshold),
			math.Float64bits(w.SQLScore) != math.Float64bits(g.SQLScore),
			math.Float64bits(w.FusedScore) != math.Float64bits(g.FusedScore):
			return fmt.Sprintf("alert %d: got seq=%d flag=%s channels=%v score=%v, the Monitor raised seq=%d flag=%s channels=%v score=%v",
				i, g.Seq, g.Flag, g.Channels, g.Score, w.Seq, w.Flag, w.Channels, w.Score)
		}
	}
	return ""
}

// runOfSeq finds the session's run whose calls include engine sequence seq.
func runOfSeq(ss *sessState, seq int) *runRec {
	for _, r := range ss.runs {
		if seq >= int(r.seqLo) && seq < int(r.seqLo)+len(r.pt.calls) {
			return r
		}
	}
	return nil
}
