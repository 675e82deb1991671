// Command perfbench is AD-PROM's wire-to-verdict benchmark. It starts the
// fleet daemon's serving stack in process (tenant Router, SQL channel plus
// fusion per tenant, ingest server on a loopback listener), drives it with a
// seeded load generator over two TCP connections, checks every alert
// against a sequential facade Monitor fed the same runs, and prints each
// metric by name and unit, ending with one JSON line. See README.md; run it
// through run.py.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sync"
	"time"

	"adprom/internal/attack"
	"adprom/internal/collector"
	"adprom/internal/detect"
)

// processStart is as close to process start as the program can observe;
// set-up time is measured from it.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bulk-frames, chatty-ndjson or attack-dense")
	seed := fs.Int64("seed", 1, "workload seed: run order, session assignment, interleaving, attacked runs")
	seconds := fs.Float64("seconds", 10, "length of the measured window, cut into rounds")
	traceFlag := fs.Int("trace", 0, "1 records spans around each layer call and runs the offline replays")
	setupOnly := fs.Bool("setup-only", false, "stop after set-up and report setup_s only")
	rate := fs.Float64("rate", 0, "override an open-loop workload's rate (calls/s or runs/s), to find its saturation")
	spansPath := fs.String("spans", "", "with -trace 1, write the spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *rate > 0 {
		cp := *w
		if cp.perCall {
			cp.callRate = *rate
		} else {
			cp.runRate = *rate
		}
		w = &cp
	}
	b := &bench{
		w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		traced: *traceFlag == 1, clk: clock{base: processStart},
	}
	first, err := b.setup()
	if err != nil {
		fmt.Fprintln(stderr, "set-up:", err)
		return 1
	}
	if *setupOnly {
		first.stop()
		rep := newReport()
		rep.set("setup_s", "s", b.setupDur.Seconds(), "")
		rep.print(stdout)
		return exitFor(writeResult(stdout, result{Correct: true, Attempted: 1, Metrics: rep.metrics}), stderr)
	}
	o, err := b.run(first)
	if err != nil {
		fmt.Fprintln(stderr, "run:", err)
		return 1
	}
	o.rep.print(stdout)
	for _, e := range o.errs {
		fmt.Fprintln(stderr, "check failed:", e)
	}
	if b.traced && *spansPath != "" {
		if err := b.writeSpans(*spansPath); err != nil {
			fmt.Fprintln(stderr, "spans:", err)
			return 1
		}
	}
	out := result{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.rep.metrics}
	if err := writeResult(stdout, out); err != nil {
		return exitFor(err, stderr)
	}
	if !out.Correct {
		return 1
	}
	return 0
}

func exitFor(err error, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// bench is one benchmark process: the trained tenants, the attacked runs,
// and the rounds measured on them.
type bench struct {
	w      *workload
	seed   int64
	dur    time.Duration
	traced bool
	clk    clock

	tenants  []*tenantRT
	attacks  []*poolTrace
	sessions sync.Map // session id → *sessState, over every round
	rounds   []*round
	setupDur time.Duration
	// rssReset says the resident-memory high-water mark was reset at the
	// first window's start.
	rssReset bool
}

// roundDur is the measured length of one round.
func (b *bench) roundDur() time.Duration { return b.dur / time.Duration(b.w.rounds) }

// setup trains every tenant and starts the first round's stack; set-up time
// runs from process start until that stack has a warm-up verdict per tenant.
func (b *bench) setup() (*instance, error) {
	var err error
	if b.tenants, err = trainTenants(b.w); err != nil {
		return nil, err
	}
	in, err := startInstance(b.w, b.tenants, b.clk, &b.sessions, b.traced, "r0")
	if err != nil {
		return nil, err
	}
	b.setupDur = time.Since(processStart)
	return in, nil
}

// collectAttacks runs every Table V attack and SQL-channel adversary against
// the banking app the way internal/experiments stages them, one trace per
// attack case.
func collectAttacks(tenants []*tenantRT) ([]*poolTrace, error) {
	for t, tr := range tenants {
		if tr.name != "appb" {
			continue
		}
		var out []*poolTrace
		for _, atk := range append(attack.AppBAttacks(), attack.SQLChannelAttacks()...) {
			prog, err := atk.Apply(tr.app.Prog)
			if err != nil {
				return nil, fmt.Errorf("attack %d: %w", atk.ID, err)
			}
			cases := atk.Cases
			if cases == nil {
				cases = tr.app.TestCases
			}
			for _, tc := range cases {
				calls, err := tr.app.RunCase(prog, tc, collector.ModeADPROM, atk.Setup)
				if err != nil {
					return nil, fmt.Errorf("attack %d case %s: %w", atk.ID, tc.Name, err)
				}
				out = append(out, &poolTrace{tenant: t, calls: wireView(calls)})
			}
		}
		return out, nil
	}
	return nil, errors.New("attacked runs need the appb tenant")
}

// outcome is what run returns: the report plus the correctness verdict.
type outcome struct {
	rep       *report
	attempted int64
	failed    int64
	errs      []string
}

// run measures every round, then checks the outputs and computes the
// metrics. first is the stack set-up started.
func (b *bench) run(first *instance) (*outcome, error) {
	if b.w.attackShare > 0 {
		var err error
		if b.attacks, err = collectAttacks(b.tenants); err != nil {
			first.stop()
			return nil, err
		}
	}
	stopSampler := make(chan struct{})
	peakC := make(chan int, 1)
	go func() {
		peak := goruntime.NumGoroutine()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, goruntime.NumGoroutine())
			case <-stopSampler:
				peakC <- peak
				return
			}
		}
	}()
	in := first
	var err error
	for i := 0; i < b.w.rounds; i++ {
		tag := fmt.Sprintf("r%d", i)
		if i > 0 {
			if in, err = startInstance(b.w, b.tenants, b.clk, &b.sessions, b.traced, tag); err != nil {
				break
			}
		}
		rd := &round{idx: i, tag: tag, inst: in}
		if err = b.measure(rd); err != nil {
			break
		}
		b.rounds = append(b.rounds, rd)
	}
	close(stopSampler)
	goroutinesPeak := <-peakC
	if err != nil {
		return nil, err
	}
	peakRSS, rssNote := b.peakRSS()

	o := &outcome{rep: newReport()}
	rep := o.rep
	var sessions []*sessState
	var runs []*runRec
	got := map[string][]detect.Alert{}
	var alerts []alertRec
	var sent, judged, strays int64
	var decodeErrors, sinkRejects uint64
	var rates, cpus, p50s, p90s, verdicts, late []float64
	for _, rd := range b.rounds {
		sessions = append(sessions, rd.sessions...)
		runs = append(runs, rd.runs...)
		for _, r := range rd.inst.warm {
			sent += int64(len(r.pt.calls))
		}
		for _, r := range rd.runs {
			sent += int64(len(r.pt.calls))
		}
		judged += int64(rd.judged)
		decodeErrors += rd.ingest.DecodeErrors
		sinkRejects += rd.ingest.SinkRejects
		strays += rd.inst.sink.strays.Load()
		for _, log := range rd.inst.alerts {
			for _, a := range log.recs {
				got[a.session] = append(got[a.session], a.alert)
				alerts = append(alerts, a)
			}
		}
		calls := float64(rd.after.calls - rd.before.calls)
		rates = append(rates, calls/(float64(rd.end-rd.start)/1e9))
		cpus = append(cpus, float64((rd.after.cpu-rd.before.cpu).Microseconds())/1e3/(calls/1000))
		var vs []float64
		for _, r := range rd.runs {
			if r.warm {
				continue
			}
			late = append(late, float64(r.sent-r.sched))
			v := inf
			if r.done != 0 {
				v = float64(r.done - r.sched)
			}
			vs = append(vs, v)
		}
		verdicts = append(verdicts, vs...)
		p50, ok50 := percentile(vs, 0.50)
		p90, ok90 := percentile(vs, 0.90)
		if !ok50 || !ok90 {
			return nil, fmt.Errorf("round %d has %d runs, too few for its p90", rd.idx, len(vs))
		}
		p50s, p90s = append(p50s, p50), append(p90s, p90)
	}

	unjudged := sent - judged
	o.attempted = sent
	o.failed = max(unjudged, 0) + int64(decodeErrors+sinkRejects) + strays
	if unjudged != 0 {
		o.errs = append(o.errs, fmt.Sprintf("calls judged %d != calls sent %d", judged, sent))
	}
	if o.failed != 0 {
		o.errs = append(o.errs, fmt.Sprintf("%d calls or events failed (decode errors %d, sink rejects %d, stray events %d)",
			o.failed, decodeErrors, sinkRejects, strays))
	}
	ref := referenceCheck(b.tenants, sessions, got)
	if ref.mismatches > 0 {
		o.errs = append(o.errs, fmt.Sprintf("%d sessions' alerts differ from the sequential Monitor; first: %s", ref.mismatches, ref.firstDiff))
	}
	// The Monitor runs the same engine, so a change that silences detection
	// in both would pass the comparison; the alert counts pin it.
	if b.w.attackShare == 0 && len(alerts) > 0 {
		o.errs = append(o.errs, fmt.Sprintf("%d alerts on a workload of training runs, which must replay clean", len(alerts)))
	}
	if len(alerts) < b.w.minAlerts {
		o.errs = append(o.errs, fmt.Sprintf("%d alerts, fewer than the %d this workload must raise", len(alerts), b.w.minAlerts))
	}

	var alertLat, sinkLat []float64
	for _, a := range alerts {
		v, _ := b.sessions.Load(a.session)
		ss := v.(*sessState)
		r := runOfSeq(ss, a.alert.Seq)
		if r == nil || r.warm {
			continue
		}
		alertLat = append(alertLat, float64(a.at-r.sched))
		if at, ok := takeFlagged(ss, a.alert.Seq); ok {
			sinkLat = append(sinkLat, float64(a.at-at))
		}
	}

	roundNote := fmt.Sprintf("median of %d rounds", len(b.rounds))
	rep.set("setup_s", "s", b.setupDur.Seconds(), "process start to listener ready and a warm-up verdict per tenant")
	rep.set("calls_per_s", "1/s", median(rates), roundNote)
	rep.set("verdict_p50_ms", "ms", median(p50s)*1e-6, fmt.Sprintf("%s, n=%d runs", roundNote, len(verdicts)))
	rep.set("verdict_p90_ms", "ms", median(p90s)*1e-6, fmt.Sprintf("%s, n=%d runs", roundNote, len(verdicts)))
	rep.set("cpu_ms_per_kcall", "ms", median(cpus), roundNote+", user+system, generator included")
	rep.set("peak_rss_mb", "MiB", peakRSS, rssNote)
	rep.set("failed_share", "ratio", float64(o.failed)/float64(sent), fmt.Sprintf("%d of %d calls", o.failed, sent))
	rep.pct("verdict_p99_ms", "ms", verdicts, 0.99, 1e-6)
	rep.pct("alert_p50_ms", "ms", alertLat, 0.50, 1e-6)
	rep.pct("alert_p99_ms", "ms", alertLat, 0.99, 1e-6)
	if b.traced {
		if err := b.perLayer(rep, runs, late, sinkLat, len(alertLat), ref, goroutinesPeak); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// perLayer adds the traced run's per-layer metrics.
func (b *bench) perLayer(rep *report, runs []*runRec, late, sinkLat []float64, nAlerts int, ref refResult, goroutinesPeak int) error {
	rep.pct("gen.late_p99_ms", "ms", late, 0.99, 1e-6)
	var items []event
	for _, rd := range b.rounds {
		items = append(items, rd.items(b.w.loop == closedLoop)...)
	}
	items = capItems(items)
	var off offline
	if err := timeCodec(items, b.w.codec, b.w.sessions > 0, &off); err != nil {
		return err
	}
	if err := timeRoute(b.tenants, items, &off); err != nil {
		return err
	}
	timeScorers(b.tenants, capRuns(runs), &off)
	rep.set("gen.encode_ns_per_call", "ns", off.encodeNs, "offline, facade encoders")
	rep.set("ingest.decode_ns_per_call", "ns", off.decodeNs, "offline, codec decoder Next")
	rep.set("ingest.bytes_per_call", "B", off.bytesPerCall, "")

	var wire, queue, op, drain []float64
	var stageSum [5]float64
	var verdictSum, states float64
	var judgements, calls, sqlCalls int
	for _, r := range runs {
		if r.warm {
			continue
		}
		calls += len(r.pt.calls)
		judgements += int(r.judged)
		states += float64(len(r.pt.calls) * b.tenants[r.sess.tenant].prof.StatesAfter)
		for _, c := range r.pt.calls {
			if c.SQL != "" {
				sqlCalls++
			}
		}
		if r.done == 0 {
			continue
		}
		t := bounds(r)
		for k := range stageSum {
			stageSum[k] += float64(t[k+1] - t[k])
		}
		verdictSum += float64(r.done - r.sched)
		wire = append(wire, float64(t[1]-t[0]))
		queue = append(queue, float64(t[3]-t[2]))
		op = append(op, float64(t[4]-t[3]))
		drain = append(drain, float64(r.done-r.drainIn))
	}
	var admit []float64
	var decodeErrors, sinkRejects, dropped, sinkDropped, quarantined, alloc uint64
	var qhw int
	var gcCPU, totCPU, wcalls float64
	for _, rd := range b.rounds {
		for _, cs := range rd.conns {
			for _, d := range cs.admit {
				admit = append(admit, float64(d))
			}
		}
		decodeErrors += rd.ingest.DecodeErrors
		sinkRejects += rd.ingest.SinkRejects
		qhw = max(qhw, rd.qhw)
		dropped += rd.dropped
		sinkDropped += rd.sinkDrop
		quarantined += rd.quarantine
		alloc += rd.after.alloc - rd.before.alloc
		gcCPU += rd.after.gcCPU - rd.before.gcCPU
		totCPU += rd.after.totCPU - rd.before.totCPU
		wcalls += float64(rd.after.calls - rd.before.calls)
	}
	rep.pct("ingest.wire_us_p50", "us", wire, 0.50, 1e-3)
	rep.pct("ingest.wire_us_p99", "us", wire, 0.99, 1e-3)
	rep.set("ingest.decode_errors", "count", float64(decodeErrors), "")
	rep.set("ingest.sink_rejects", "count", float64(sinkRejects), "")
	rep.pct("tenant.route_ns_p50", "ns", off.routeNs, 0.50, 1)
	rep.pct("tenant.route_ns_p99", "ns", off.routeNs, 0.99, 1)
	rep.pct("runtime.admit_us_p50", "us", admit, 0.50, 1e-3)
	rep.pct("runtime.admit_us_p99", "us", admit, 0.99, 1e-3)
	rep.pct("runtime.queue_wait_us_p50", "us", queue, 0.50, 1e-3)
	rep.pct("runtime.queue_wait_us_p99", "us", queue, 0.99, 1e-3)
	rep.pct("runtime.op_us_p50", "us", op, 0.50, 1e-3)
	rep.pct("runtime.op_us_p99", "us", op, 0.99, 1e-3)
	rep.pct("runtime.drain_us_p50", "us", drain, 0.50, 1e-3)
	rep.pct("runtime.drain_us_p99", "us", drain, 0.99, 1e-3)
	rep.pct("runtime.sink_us_p50", "us", sinkLat, 0.50, 1e-3)
	rep.pct("runtime.sink_us_p99", "us", sinkLat, 0.99, 1e-3)
	rep.set("runtime.queue_high_water", "count", float64(qhw), "calls, largest single worker queue")
	rep.set("runtime.dropped", "count", float64(dropped), "")
	rep.set("runtime.sink_dropped", "count", float64(sinkDropped), "")
	rep.set("runtime.quarantined", "count", float64(quarantined), "")
	rep.set("detect.monitor_calls_per_s", "1/s", ref.callsPerSec, fmt.Sprintf("sequential facade Monitor, %d calls, one goroutine", ref.calls))
	rep.set("detect.judgements_per_kcall", "count", 1000*float64(judgements)/float64(calls), "")
	rep.set("detect.alerts_per_kcall", "count", 1000*float64(nAlerts)/float64(calls), fmt.Sprintf("%d alerts", nAlerts))
	rep.set("hmm.push_ns_per_call", "ns", off.pushMixNs, "offline StreamScorer.Push, mix-weighted")
	for _, tr := range b.tenants {
		rep.set("hmm.push_ns_per_call."+tr.name, "ns", off.pushNs[tr.name], fmt.Sprintf("%d states", tr.prof.StatesAfter))
	}
	rep.set("hmm.states", "count", states/float64(calls), "call-weighted mean over the mix")
	rep.set("sqlchan.observe_ns_per_query", "ns", off.sqlNs, "offline sqlchan Scorer.Observe")
	rep.set("sqlchan.query_share", "ratio", float64(sqlCalls)/float64(calls), "")
	rep.set("proc.alloc_bytes_per_call", "B", float64(alloc)/wcalls, "")
	rep.set("proc.gc_cpu_fraction", "ratio", gcCPU/totCPU, "")
	rep.set("proc.goroutines_peak", "count", float64(goroutinesPeak), "sampled every 5ms")
	for k, n := range stageNames {
		rep.set("stage."+n+"_share", "ratio", stageSum[k]/verdictSum, "of the mean verdict latency")
	}
	return nil
}

var inf = math.Inf(1)

// stageNames are the verdict-latency stages between consecutive timeline
// points: scheduled send → sink entry → observe return → op start → last
// judgement → flush or close return.
var stageNames = []string{"wire", "admit", "queue_wait", "op", "drain_tail"}

// bounds returns a run's timeline points, each raised to at least the one
// before, so the stages are non-negative and sum exactly to the verdict
// latency.
func bounds(r *runRec) [6]int64 {
	t := [6]int64{r.sched, r.entry, r.ret, r.opStart, r.lastJudg, r.done}
	if r.judged == 0 {
		t[3], t[4] = r.ret, r.ret
	}
	for k := 1; k < len(t); k++ {
		t[k] = max(t[k], t[k-1])
	}
	return t
}

// takeFlagged returns when the session's flagged judgement of seq ended,
// consuming it (traced runs record them).
func takeFlagged(ss *sessState, seq int) (int64, bool) {
	for i, f := range ss.flaggedAt {
		if f.seq == seq {
			ss.flaggedAt = append(ss.flaggedAt[:i], ss.flaggedAt[i+1:]...)
			return f.at, true
		}
	}
	return 0, false
}

// capRuns returns the longest prefix of runs with at most offlineCap calls.
func capRuns(runs []*runRec) []*runRec {
	n := 0
	for i, r := range runs {
		if n += len(r.pt.calls); n > offlineCap {
			return runs[:i]
		}
	}
	return runs
}

// capItems returns the longest prefix of items with at most offlineCap
// calls.
func capItems(items []event) []event {
	n := 0
	for i, it := range items {
		if n += int(it.hi - it.lo); n > offlineCap {
			return items[:i]
		}
	}
	return items
}

// span is one timed interval of one run; Parent indexes the run's root span
// in the same file (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// spansPerFile bounds the spans file to the first measured runs.
const spansPerFile = 4096

// writeSpans writes the first measured runs' spans: a root per run from
// scheduled send to flush or close return, its telescoping stages, and the
// flush or close call itself.
func (b *bench) writeSpans(path string) error {
	var out []span
	i := 0
	for _, rd := range b.rounds {
		for _, r := range rd.runs {
			if i == spansPerFile {
				break
			}
			i++
			if r.done == 0 || r.warm {
				continue
			}
			root := len(out)
			out = append(out, span{Name: "verdict", Start: r.sched, End: r.done, Parent: -1, Run: i})
			t := bounds(r)
			for k, n := range stageNames {
				out = append(out, span{Name: n, Start: t[k], End: t[k+1], Parent: root, Run: i})
			}
			out = append(out, span{Name: "flush_call", Start: r.drainIn, End: r.done, Parent: root, Run: i})
		}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
