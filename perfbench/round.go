package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"adprom/internal/ingest"
)

// leadIn is traffic each round sends before its measured window opens, so
// open-loop sessions are spread over their runs (not all at call one) and
// queues are in steady state. Runs whose final event falls in it are
// checked but not timed.
const leadIn = 250 * time.Millisecond

// round is one slice of the measured window on its own stack instance.
type round struct {
	idx      int
	tag      string
	inst     *instance
	conns    []*connState
	gens     []*closedGen
	plans    [][]event
	sessions []*sessState // warm-up sessions first
	written  [][]*runRec  // per connection, in write order
	runs     []*runRec

	start, end int64
	before     window
	after      window
	ingest     ingest.ServerStats
	judged     uint64 // every call the shards judged, warm-up included
	qhw        int
	dropped    uint64
	sinkDrop   uint64
	quarantine uint64
}

// window is the process-level state read at each edge of a round.
type window struct {
	calls  uint64
	cpu    time.Duration
	alloc  uint64
	gcCPU  float64
	totCPU float64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the heap freed since set-up to the OS and resets the
// kernel's resident-memory high-water mark (VmHWM), so the peak read after
// the window leaves out training and input generation. It reports whether
// the reset took effect.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the resident-memory high-water mark in MiB, with a note
// on what it spans.
func (b *bench) peakRSS() (float64, string) {
	if b.rssReset {
		if kb, err := statusKB("VmHWM"); err == nil {
			return kb / 1024, "peak from the first window's start: serving stack plus the benchmark's resident inputs"
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024, "whole process: the high-water mark could not be reset" // Linux reports KiB
}

// statusKB reads a "<field>: <n> kB" line of /proc/self/status.
func statusKB(field string) (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

func snapshot(in *instance) window {
	w := window{calls: in.calls(), cpu: processCPU()}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	w.gcCPU, w.totCPU = s[0].Value.Float64(), s[1].Value.Float64()
	return w
}

// generate builds the round's inputs from the seed: each connection's
// closed-loop generator or open-loop schedule.
func (b *bench) generate(rd *round) {
	w := b.w
	var pool []*poolTrace
	for _, tr := range b.tenants {
		pool = append(pool, tr.healthy...)
	}
	for _, r := range rd.inst.warm {
		rd.sessions = append(rd.sessions, r.sess)
	}
	for c := 0; c < w.conns; c++ {
		stream := rd.idx*w.conns + c
		if w.loop == closedLoop {
			cs := newConnState(c, w.window, true)
			g := newClosedGen(w, b.seed, stream, rd.tag, pool, cs)
			rd.conns, rd.gens = append(rd.conns, cs), append(rd.gens, g)
			rd.sessions = append(rd.sessions, g.allSessions()...)
			continue
		}
		// The plan's sessions point at the connection; its inflight queue is
		// sized once the plan's run count is known.
		cs := &connState{idx: c}
		evs := openPlan(w, b.seed, stream, rd.tag, leadIn+b.roundDur(), pool, b.attacks, cs)
		finals := 0
		for _, e := range evs {
			if e.final {
				finals++
				rd.sessions = append(rd.sessions, e.run.sess)
			}
		}
		cs.inflight = make(chan *runRec, finals)
		rd.conns, rd.plans = append(rd.conns, cs), append(rd.plans, evs)
	}
	for _, ss := range rd.sessions {
		b.sessions.Store(ss.id, ss)
	}
}

// measure runs one round: every connection's sender until its plan or
// deadline is done and every verdict it is owed has returned, then stops
// the round's stack.
func (b *bench) measure(rd *round) error {
	b.generate(rd)
	goruntime.GC()
	if rd.idx == 0 {
		b.rssReset = resetPeakRSS()
	}
	t0 := b.clk.now()
	rd.start = t0 + int64(leadIn)
	deadline := rd.start + int64(b.roundDur())
	rd.written = make([][]*runRec, len(rd.conns))
	errs := make([]error, len(rd.conns))
	var wg sync.WaitGroup
	for c := range rd.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = b.drive(rd, c, t0, deadline)
		}(c)
	}
	time.Sleep(time.Duration(rd.start - b.clk.now()))
	rd.before = snapshot(rd.inst)
	wg.Wait()
	rd.after = snapshot(rd.inst)
	if err := errors.Join(errs...); err != nil {
		rd.inst.stop()
		return err
	}
	rd.end = rd.start
	for _, rs := range rd.written {
		for _, r := range rs {
			rd.end = max(rd.end, r.done)
			r.warm = r.sched < rd.start
			rd.runs = append(rd.runs, r)
		}
	}
	// Shard counters are read before the router closes; the alert logs are
	// complete only after it has.
	for _, sh := range rd.inst.shards {
		s := sh.Runtime().Stats()
		rd.qhw = max(rd.qhw, s.QueueHighWater)
		rd.dropped += s.Dropped
		rd.sinkDrop += s.SinkDropped
		rd.quarantine += s.Quarantined
	}
	rd.ingest = rd.inst.srv.Stats()
	rd.inst.stop()
	rd.judged = rd.inst.calls()
	return nil
}

// drive runs connection c's sender from t0 and waits for every verdict it
// is owed.
func (b *bench) drive(rd *round, c int, t0, deadline int64) error {
	conn, err := net.Dial("tcp", rd.inst.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	cs := rd.conns[c]
	s := &sender{clk: b.clk, cs: cs, codec: b.w.codec, long: b.w.sessions > 0, w: conn}
	if b.w.loop == closedLoop {
		err = s.runClosed(rd.gens[c], b.w.window, t0, deadline)
	} else {
		err = s.runOpen(rd.plans[c], t0)
	}
	rd.written[c] = s.written
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		cs.pending.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case err := <-rd.inst.serveErr:
		return fmt.Errorf("ingest server stopped: %v", err)
	case <-time.After(60 * time.Second):
		return fmt.Errorf("connection %d: verdicts still missing 60s after the last send", c)
	}
}

// items lists what the round's connections sent, in send order, for the
// offline replays.
func (rd *round) items(closed bool) []event {
	var out []event
	for c := range rd.conns {
		if !closed {
			out = append(out, rd.plans[c]...)
			continue
		}
		for _, r := range rd.written[c] {
			out = append(out, event{run: r, hi: int32(len(r.pt.calls)), final: true})
		}
	}
	return out
}
