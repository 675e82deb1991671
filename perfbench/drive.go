package main

import (
	"errors"
	"io"
	"time"

	"adprom/internal/ingest"
)

// flushAt is how many encoded bytes a sender gathers before writing.
const flushAt = 32 << 10

// errStalled reports a closed-loop sender that waited too long for a verdict.
var errStalled = errors.New("no verdict for 30s: the stack stalled")

// sender writes one connection's runs. Before each write it stamps the
// written runs' send time and hands them to the read loop through inflight.
type sender struct {
	clk     clock
	cs      *connState
	codec   ingest.Codec
	long    bool // runs end with a flush (long-lived sessions), not a close
	w       io.Writer
	buf     []byte
	batch   []*runRec
	written []*runRec
}

func (s *sender) write() error {
	if len(s.buf) == 0 {
		return nil
	}
	now := s.clk.now()
	for _, r := range s.batch {
		r.sent = now
		s.cs.pending.Add(1)
		s.cs.inflight <- r
	}
	s.written = append(s.written, s.batch...)
	s.batch = s.batch[:0]
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

func (s *sender) add(r *runRec, lo, hi int32, final bool) error {
	var err error
	if s.buf, err = appendRun(s.buf, s.codec, r, lo, hi, final, s.long); err != nil {
		return err
	}
	if final {
		s.batch = append(s.batch, r)
	}
	if len(s.buf) >= flushAt {
		return s.write()
	}
	return nil
}

// runClosed keeps window runs outstanding until deadline: each run is sent
// once an earlier run's flush has returned, and is due ("scheduled") at that
// return. It then waits for every outstanding verdict.
func (s *sender) runClosed(g *closedGen, window int, start, deadline int64) error {
	free := make([]int64, window)
	for i := range free {
		free[i] = start
	}
	stall := time.NewTimer(time.Hour)
	defer stall.Stop()
	for s.clk.now() < deadline {
		for len(s.cs.acks) > 0 {
			free = append(free, <-s.cs.acks)
		}
		if len(free) == 0 {
			if err := s.write(); err != nil {
				return err
			}
			if !stall.Stop() {
				select {
				case <-stall.C:
				default:
				}
			}
			stall.Reset(30 * time.Second)
			select {
			case t := <-s.cs.acks:
				free = append(free, t)
			case <-stall.C:
				return errStalled
			}
			continue
		}
		r := g.next()
		r.sched, free = free[0], free[1:]
		if err := s.add(r, 0, int32(len(r.pt.calls)), true); err != nil {
			return err
		}
	}
	return s.write()
}

// runOpen sends a precomputed schedule: whenever events are due it writes
// all of them at once, however late, and otherwise sleeps until the next.
// A run's final event is due at start plus its offset in the plan.
func (s *sender) runOpen(evs []event, start int64) error {
	for i := 0; i < len(evs); {
		now := s.clk.now()
		if due := start + evs[i].sched; due > now {
			if err := s.write(); err != nil {
				return err
			}
			time.Sleep(time.Duration(due - now))
			continue
		}
		for ; i < len(evs) && start+evs[i].sched <= now; i++ {
			e := &evs[i]
			if e.final {
				e.run.sched = start + e.sched
			}
			if err := s.add(e.run, e.lo, e.hi, e.final); err != nil {
				return err
			}
		}
		if err := s.write(); err != nil {
			return err
		}
	}
	return nil
}
