package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"adprom"
	"adprom/internal/collector"
	"adprom/internal/ingest"
)

// loopKind says how the load generator paces its sends.
type loopKind int

const (
	// closedLoop keeps a fixed number of runs outstanding per connection: a
	// run is sent only once an earlier run's flush has returned.
	closedLoop loopKind = iota
	// openLoop sends on a precomputed schedule regardless of how the system
	// keeps up; latency is charged from the scheduled time.
	openLoop
)

// workload is one traffic mix. The fields are the whole definition: the seed
// only chooses run order, session assignment, interleaving and attacked runs.
type workload struct {
	name    string
	tenants []string
	codec   ingest.Codec
	loop    loopKind
	conns   int
	// sessions is the number of long-lived sessions per tenant per
	// connection (closed loop); 0 means one session per run, ended by a
	// close instead of a flush.
	sessions int
	// window is the number of runs outstanding per connection (closed loop).
	window int
	// callRate paces perCall workloads (calls/s over all connections);
	// slots is how many runs are in progress at once over all connections.
	callRate float64
	slots    int
	perCall  bool
	// runRate paces whole-run workloads (runs/s over all connections).
	runRate float64
	// attackShare is the probability that a run replays an attacked trace.
	// A workload without attacked runs must raise no alert at all; one with
	// them must raise at least minAlerts in a benchmark run.
	attackShare float64
	minAlerts   int
	// programTrace turns on the program's own decision tracing with the
	// serve -trace defaults (capacity 1024, healthy traces sampled 1-in-16).
	programTrace bool
	// rounds cuts the measured window into this many rounds, each on a
	// freshly started stack; rates and latency percentiles are the median
	// over rounds. A closed loop's throughput depends on how its sessions
	// happen to hash onto workers, which rounds sample; open-loop latency
	// percentiles need long windows, so those run one round.
	rounds int
}

// maxFrameCalls splits longer runs into several observe frames.
const maxFrameCalls = 64

// workloads are the traffic mixes; perfbench/README.md and BENCHMARK.json
// say why each was chosen.
var workloads = []*workload{
	{
		// Decode, routing and admission are paid once per run, so scoring,
		// the SQL channel and the flush round trip dominate.
		name:     "bulk-frames",
		tenants:  []string{"apph", "appb", "apps"},
		codec:    ingest.CodecBinary,
		loop:     closedLoop,
		conns:    2,
		sessions: 32,
		window:   96,
		rounds:   5,
	},
	{
		// Every call pays JSON decode, routing, a single-call enqueue and a
		// worker wake-up. 60k calls/s is about 39% of this mix's saturated
		// rate at the commit that introduced it.
		name:     "chatty-ndjson",
		tenants:  []string{"apph", "appb", "apps"},
		codec:    ingest.CodecNDJSON,
		loop:     openLoop,
		conns:    2,
		callRate: 60000,
		slots:    300,
		perCall:  true,
		rounds:   1,
	},
	{
		// The only mix where flagged windows, fusion, alert retention and
		// the async sink do real work; 20% attacked runs give thousands of
		// alerts per measured run. 5000 runs/s (about 82k calls/s) is about
		// 40% of this mix's saturated rate at the commit that introduced it,
		// about 12,200 runs/s (200k calls/s).
		name:         "attack-dense",
		tenants:      []string{"appb"},
		codec:        ingest.CodecBinary,
		loop:         openLoop,
		conns:        2,
		runRate:      5000,
		attackShare:  0.2,
		minAlerts:    1000,
		programTrace: true,
		rounds:       1,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// poolTrace is one run the generator can replay: a trace as the collector
// would put it on the wire.
type poolTrace struct {
	tenant int
	calls  collector.Trace
}

// wireView strips what the wire does not carry (leak origins), so the
// reference Monitor sees exactly the calls the program decodes.
func wireView(tr collector.Trace) collector.Trace {
	out := make(collector.Trace, len(tr))
	for i, c := range tr {
		c.Origins = nil
		out[i] = c
	}
	return out
}

// sessState is one session as the benchmark tracks it. Fields are grouped by
// the one goroutine that writes them while the workload runs.
type sessState struct {
	id     string
	tname  string
	tenant int
	conn   *connState

	// calls is the session's cumulative call count (sender-owned), giving
	// each run the engine sequence number of its first call.
	calls int32

	// Read-loop-owned: the runs whose flush or close returned, in order, and
	// the last observe call's sink entry and return (traced runs).
	runs               []*runRec
	lastEntry, lastRet int64
	// Worker-owned between a run's first observe and its flush or close:
	// the start of the op that made the latest judgement, when that
	// judgement ended, and counts (traced runs).
	opStart, lastJudge  int64
	judgements, flagged int32
	flaggedAt           []seqTime
}

type seqTime struct {
	seq int
	at  int64
}

// runRec is one run's plan and timeline. Times are nanoseconds since the
// benchmark's base instant; 0 means "not reached".
type runRec struct {
	sess     *sessState
	pt       *poolTrace
	seqLo    int32
	warm     bool
	sched    int64 // when the run's final event was due
	sent     int64 // when its bytes were handed to the socket
	done     int64 // when the flush or close call returned
	entry    int64 // last observe: sink entry
	ret      int64 // last observe: return
	drainIn  int64 // flush or close: sink entry
	opStart  int64 // start of the op that made the run's last judgement
	lastJudg int64 // when that judgement ended
	judged   int32
	flagged  int32
}

// event is one write of a connection's stream: calls [lo, hi) of a run,
// followed by its final event when final; sched is its offset in an
// open-loop plan.
type event struct {
	sched  int64
	run    *runRec
	lo, hi int32
	final  bool
}

// runSeq deals runs from a pool in epochs: each epoch is a fresh seeded
// permutation of the whole pool, so every prefix of whole epochs replays the
// same multiset of runs in a seed-dependent order.
type runSeq struct {
	rng  *rand.Rand
	pool []*poolTrace
	perm []int
	pos  int
}

func newRunSeq(rng *rand.Rand, pool []*poolTrace) *runSeq {
	return &runSeq{rng: rng, pool: pool, pos: len(pool)}
}

func (s *runSeq) next() *poolTrace {
	if s.pos == len(s.pool) {
		s.perm = s.rng.Perm(len(s.pool))
		s.pos = 0
	}
	pt := s.pool[s.perm[s.pos]]
	s.pos++
	return pt
}

// streamRNG derives one connection's generator from the workload seed;
// stream numbers the connection across rounds.
func streamRNG(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(stream)+1))
}

// closedGen produces one connection's closed-loop run sequence: runs from
// the shared pool, each on a seeded choice among its tenant's long-lived
// sessions on this connection.
type closedGen struct {
	rng      *rand.Rand
	seq      *runSeq
	sessions [][]*sessState // [tenant][k]
}

func newClosedGen(w *workload, seed int64, stream int, tag string, pool []*poolTrace, conn *connState) *closedGen {
	rng := streamRNG(seed, stream)
	g := &closedGen{rng: rng, seq: newRunSeq(rng, pool), sessions: make([][]*sessState, len(w.tenants))}
	for t, name := range w.tenants {
		for k := 0; k < w.sessions; k++ {
			g.sessions[t] = append(g.sessions[t], &sessState{
				id: fmt.Sprintf("%s-%s-c%d-s%02d", tag, name, conn.idx, k), tname: name, tenant: t, conn: conn,
			})
		}
	}
	return g
}

func (g *closedGen) next() *runRec {
	pt := g.seq.next()
	ss := g.sessions[pt.tenant][g.rng.IntN(len(g.sessions[pt.tenant]))]
	r := &runRec{sess: ss, pt: pt, seqLo: ss.calls}
	ss.calls += int32(len(pt.calls))
	return r
}

func (g *closedGen) allSessions() []*sessState {
	var out []*sessState
	for _, ts := range g.sessions {
		out = append(out, ts...)
	}
	return out
}

// openPlan precomputes one connection's open-loop schedule over d.
func openPlan(w *workload, seed int64, stream int, tag string, d time.Duration, healthy, attacks []*poolTrace, conn *connState) []event {
	rng := streamRNG(seed, stream)
	seq := newRunSeq(rng, healthy)
	nRuns := 0
	newRun := func() *runRec {
		pt := seq.next()
		if w.attackShare > 0 && rng.Float64() < w.attackShare {
			pt = attacks[rng.IntN(len(attacks))]
		}
		name := w.tenants[pt.tenant]
		ss := &sessState{id: fmt.Sprintf("%s-%s-c%d-r%07d", tag, name, conn.idx, nRuns), tname: name, tenant: pt.tenant, conn: conn}
		nRuns++
		return &runRec{sess: ss, pt: pt}
	}
	if !w.perCall {
		gap := float64(w.conns) / w.runRate * 1e9
		evs := make([]event, 0, int(float64(d)/gap)+1)
		for j := 0; float64(j)*gap < float64(d); j++ {
			r := newRun()
			evs = append(evs, event{sched: int64(float64(j) * gap), run: r, hi: int32(len(r.pt.calls)), final: true})
		}
		return evs
	}
	// perCall: each scheduled instant emits the next call of a randomly
	// chosen in-progress run. Past the deadline no run starts, and the slots
	// drain at the same call rate.
	gap := float64(w.conns) / w.callRate * 1e9
	type slot struct {
		r   *runRec
		pos int32
	}
	active := make([]slot, w.slots/w.conns)
	for i := range active {
		active[i] = slot{r: newRun()}
	}
	// One event per gap until the deadline, then the slots' remaining calls.
	evs := make([]event, 0, int(float64(d)/gap)+len(active)*32)
	for j := 0; len(active) > 0; j++ {
		t := int64(float64(j) * gap)
		i := rng.IntN(len(active))
		s := &active[i]
		final := int(s.pos)+1 == len(s.r.pt.calls)
		evs = append(evs, event{sched: t, run: s.r, lo: s.pos, hi: s.pos + 1, final: final})
		s.pos++
		if !final {
			continue
		}
		if t < int64(d) {
			*s = slot{r: newRun()}
			continue
		}
		active[i] = active[len(active)-1]
		active = active[:len(active)-1]
	}
	return evs
}

// appendRun encodes calls [lo, hi) of r as observe events of at most
// maxFrameCalls calls each, then the run's final event when final: a flush
// on long-lived sessions, a close otherwise.
func appendRun(dst []byte, codec ingest.Codec, r *runRec, lo, hi int32, final, longLived bool) ([]byte, error) {
	enc := adprom.EncodeIngestFrame
	if codec == ingest.CodecNDJSON {
		enc = adprom.EncodeIngestNDJSON
	}
	tenant := r.sess.tname
	var err error
	for a := lo; a < hi; a += maxFrameCalls {
		b := min(a+maxFrameCalls, hi)
		dst, err = enc(dst, adprom.IngestEvent{Kind: adprom.IngestObserve, Tenant: tenant, Session: r.sess.id, Calls: r.pt.calls[a:b]})
		if err != nil {
			return dst, err
		}
	}
	if !final {
		return dst, nil
	}
	kind := adprom.IngestClose
	if longLived {
		kind = adprom.IngestFlush
	}
	return enc(dst, adprom.IngestEvent{Kind: kind, Tenant: tenant, Session: r.sess.id})
}
