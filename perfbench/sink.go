package main

import (
	"sync"
	"sync/atomic"
	"time"

	"adprom/internal/collector"
	"adprom/internal/detect"
	"adprom/internal/tenant"
	"adprom/internal/trace"
)

// clock timestamps events as nanoseconds since the benchmark's base instant
// (monotonic).
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// connState is one generator connection: the runs whose final event it has
// written, in write order, and what its server-side read loop observed.
type connState struct {
	idx int
	// inflight carries each run from the sender to the read loop that
	// delivers its final event; sized to the most runs a connection can have
	// written and not yet finished, so the sender never blocks on it.
	inflight chan *runRec
	// acks carries each finished run's return time back to a closed-loop
	// sender; nil on open-loop connections. Sized like inflight.
	acks chan int64
	// pending counts runs written and not yet finished.
	pending sync.WaitGroup

	// Read-loop-owned (traced runs): the duration of every observe call.
	admit []int32
}

func newConnState(idx, maxInflight int, closed bool) *connState {
	c := &connState{idx: idx, inflight: make(chan *runRec, maxInflight)}
	if closed {
		c.acks = make(chan int64, maxInflight)
	}
	return c
}

// recSink wraps the Router as the ingest server's sink. It forwards every
// call unchanged; it stamps each run's flush or close return in every run,
// and records spans around the observe and flush calls only when traced.
type recSink struct {
	router   *tenant.Router
	clk      clock
	traced   bool
	sessions *sync.Map // session id → *sessState
	strays   atomic.Int64
}

func (s *recSink) Observe(tenantID, session string, calls []collector.Call) error {
	return s.ObserveTraced(trace.Context{}, tenantID, session, calls)
}

func (s *recSink) ObserveTraced(tc trace.Context, tenantID, session string, calls []collector.Call) error {
	if !s.traced {
		return s.router.ObserveTraced(tc, tenantID, session, calls)
	}
	entry := s.clk.now()
	err := s.router.ObserveTraced(tc, tenantID, session, calls)
	ret := s.clk.now()
	if v, ok := s.sessions.Load(session); ok {
		ss := v.(*sessState)
		ss.lastEntry, ss.lastRet = entry, ret
		ss.conn.admit = append(ss.conn.admit, int32(ret-entry))
	}
	return err
}

func (s *recSink) Flush(tenantID, session string) error {
	return s.finish(session, func() error { return s.router.Flush(tenantID, session) })
}

func (s *recSink) CloseSession(tenantID, session string) error {
	return s.finish(session, func() error { return s.router.CloseSession(tenantID, session) })
}

// finish times a run's final event and hands the run's timeline back to its
// connection. Once the call returns every call of the run has been judged,
// and the worker's writes to the session are visible here.
func (s *recSink) finish(session string, call func() error) error {
	in := s.clk.now()
	err := call()
	done := s.clk.now()
	v, ok := s.sessions.Load(session)
	if !ok {
		s.strays.Add(1)
		return err
	}
	ss := v.(*sessState)
	var r *runRec
	select {
	case r = <-ss.conn.inflight:
	default:
	}
	if r == nil || r.sess != ss {
		s.strays.Add(1)
		return err
	}
	if err == nil {
		r.done = done
	}
	r.drainIn = in
	if s.traced {
		r.entry, r.ret = ss.lastEntry, ss.lastRet
		r.opStart, r.lastJudg = ss.opStart, ss.lastJudge
		r.judged, r.flagged = ss.judgements, ss.flagged
		ss.judgements, ss.flagged = 0, 0
	}
	ss.runs = append(ss.runs, r)
	if ss.conn.acks != nil {
		ss.conn.acks <- done
	}
	ss.conn.pending.Done()
	return err
}

// judge is the runtime's judge observer. It runs on the session's worker;
// untraced it returns at once.
func (s *recSink) judge(session string, seq int, at time.Time, _ float64, flagged bool) {
	if !s.traced {
		return
	}
	now := s.clk.now()
	v, ok := s.sessions.Load(session)
	if !ok {
		return
	}
	ss := v.(*sessState)
	ss.opStart, ss.lastJudge = int64(at.Sub(s.clk.base)), now
	ss.judgements++
	if flagged {
		ss.flagged++
		ss.flaggedAt = append(ss.flaggedAt, seqTime{seq: seq, at: now})
	}
}

// alertRec is one alert as the runtime's alert function received it.
type alertRec struct {
	session string
	alert   detect.Alert
	at      int64
}

// alertLog collects one shard's alerts. The runtime calls it from the
// shard's single sink goroutine; read it only after the router is closed.
type alertLog struct {
	clk  clock
	recs []alertRec
}

func (l *alertLog) add(session string, a detect.Alert) {
	l.recs = append(l.recs, alertRec{session: session, alert: a, at: l.clk.now()})
}
