package metrics

import "sync/atomic"

// NumFlags is the size of the alert-flag taxonomy the counters track
// (detect.FlagNormal..FlagOutOfContext). metrics stays independent of the
// detect package, so flags are counted by their integer value.
const NumFlags = 4

// NumChannels is the size of the detection-channel provenance taxonomy
// (detect.ChannelNames: hmm, sql, fusion). As with flags, metrics stays
// independent of the detect package, so channels are counted by index.
const NumChannels = 3

// Counters is a lock-free set of detection-runtime counters, shared by every
// worker of a runtime. All methods are safe for concurrent use; the zero
// value is ready.
type Counters struct {
	calls    atomic.Uint64
	dropped  atomic.Uint64
	shed     atomic.Uint64
	alerts   [NumFlags]atomic.Uint64
	channels [NumChannels]atomic.Uint64
	sessions atomic.Int64
	opened   atomic.Uint64

	// queueHighWater is the lifetime maximum of pending ingest calls observed
	// on any single worker queue — the saturation early-warning gauge.
	queueHighWater atomic.Int64

	// Latency histograms for the three instrumented paths: per-call engine
	// scoring (observe), flush/close processing, and async sink deliveries.
	// The observe histogram subsumes the old latencyNanos sum: the snapshot's
	// LatencyNanos and MaxLatencyNanos derive from it.
	observe     Histogram
	flush       Histogram
	sinkDeliver Histogram

	// Failure-path counters (worker supervision and sink isolation).
	panics         atomic.Uint64
	workerRestarts atomic.Uint64
	quarantined    atomic.Uint64
	sinkDropped    atomic.Uint64
	sinkPanics     atomic.Uint64

	// Hot-swap counters (profile lifecycle).
	swaps          atomic.Uint64
	enginesRetired atomic.Uint64
}

// AddCalls records n calls processed by one observe op that took totalNanos.
// Each call is attributed the mean per-call share of the batch, preserving
// the snapshot invariant Observe.Count == Calls (Observe.Sum may round down
// by up to n-1 nanoseconds per batch).
func (c *Counters) AddCalls(n int, totalNanos int64) {
	if n <= 0 {
		return
	}
	c.calls.Add(uint64(n))
	c.observe.ObserveN(totalNanos/int64(n), uint64(n))
}

// NoteObserveExemplar attaches a decision-trace ID to the observe-latency
// histogram as its latest exemplar — the runtime stamps each alert-raising
// op's trace here so latency snapshots link back to a forensic trace.
func (c *Counters) NoteObserveExemplar(traceID string) { c.observe.SetExemplar(traceID) }

// AddFlush records the processing latency of one flush or close op.
func (c *Counters) AddFlush(latencyNanos int64) { c.flush.Observe(latencyNanos) }

// AddSinkDelivery records the duration of one alert delivery to the user's
// sink (including deliveries that ended in a recovered panic).
func (c *Counters) AddSinkDelivery(latencyNanos int64) { c.sinkDeliver.Observe(latencyNanos) }

// AddDropped records calls discarded unscored: queued for a dead or
// quarantined session, or still queued at shutdown.
func (c *Counters) AddDropped(n uint64) { c.dropped.Add(n) }

// AddShed records calls rejected by the risk-aware admission controller.
// Kept separate from Dropped so operators can distinguish a deliberate,
// risk-ranked degradation from calls lost to a failed session or shutdown.
func (c *Counters) AddShed(n uint64) { c.shed.Add(n) }

// NoteQueueDepth folds one observed per-worker pending-call depth into the
// lifetime high-water mark. Lock-free CAS max; safe from every producer.
func (c *Counters) NoteQueueDepth(depth int64) {
	for {
		cur := c.queueHighWater.Load()
		if depth <= cur || c.queueHighWater.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// AddAlert records one alert of the given flag; out-of-range flags are
// ignored rather than panicking a worker.
func (c *Counters) AddAlert(flag int) {
	if flag >= 0 && flag < NumFlags {
		c.alerts[flag].Add(1)
	}
}

// AddChannelAlert records that an alert crossed the given detection
// channel's rule (index into detect.ChannelNames); one alert can count
// against several channels. Out-of-range indices are ignored.
func (c *Counters) AddChannelAlert(channel int) {
	if channel >= 0 && channel < NumChannels {
		c.channels[channel].Add(1)
	}
}

// SessionOpened / SessionClosed maintain the active-session gauge.
func (c *Counters) SessionOpened() { c.sessions.Add(1); c.opened.Add(1) }
func (c *Counters) SessionClosed() { c.sessions.Add(-1) }

// ActiveSessions reads the active-session gauge alone — a single atomic
// load, cheap enough for per-call admission checks (the tenant router's
// session quota), unlike Snapshot which also copies three histograms.
func (c *Counters) ActiveSessions() int64 { return c.sessions.Load() }

// AddPanic records one panic recovered on a detection worker (per-op recovery
// or a worker-goroutine crash).
func (c *Counters) AddPanic() { c.panics.Add(1) }

// AddWorkerRestart records one supervised restart of a crashed worker
// goroutine.
func (c *Counters) AddWorkerRestart() { c.workerRestarts.Add(1) }

// AddQuarantined records one session quarantined after a component failure.
func (c *Counters) AddQuarantined() { c.quarantined.Add(1) }

// AddSinkDropped records alerts shed because the async sink buffer was
// full.
func (c *Counters) AddSinkDropped(n uint64) { c.sinkDropped.Add(n) }

// AddSinkPanic records one panic recovered from the user's alert sink.
func (c *Counters) AddSinkPanic() { c.sinkPanics.Add(1) }

// AddSwap records one profile hot-swap published to the runtime.
func (c *Counters) AddSwap() { c.swaps.Add(1) }

// AddEngineRetired records one detection engine discarded because it was
// built over a superseded profile generation (instead of being recycled).
func (c *Counters) AddEngineRetired() { c.enginesRetired.Add(1) }

// CountersSnapshot is a point-in-time copy of a Counters.
type CountersSnapshot struct {
	// Calls is the number of calls processed by detection workers.
	Calls uint64
	// Dropped is the number of calls discarded unscored (dead or
	// quarantined session, shutdown).
	Dropped uint64
	// Shed is the number of calls rejected by risk-aware admission;
	// disjoint from Dropped.
	Shed uint64
	// QueueHighWater is the lifetime maximum pending-call depth observed on
	// any single worker queue.
	QueueHighWater int64
	// Alerts counts raised alerts by flag value.
	Alerts [NumFlags]uint64
	// ChannelAlerts counts alert provenance by detection channel (hmm, sql,
	// fusion); one alert can increment several channels.
	ChannelAlerts [NumChannels]uint64
	// LatencyNanos is the cumulative per-call processing time.
	LatencyNanos int64
	// ActiveSessions and SessionsOpened describe session churn.
	ActiveSessions int64
	SessionsOpened uint64
	// Panics counts panics recovered on detection workers; WorkerRestarts
	// counts supervised worker-goroutine restarts; Quarantined counts
	// sessions isolated after a component failure.
	Panics         uint64
	WorkerRestarts uint64
	Quarantined    uint64
	// SinkDropped counts alerts shed because the async sink buffer was full;
	// SinkPanics counts panics recovered from the user's alert sink.
	SinkDropped uint64
	SinkPanics  uint64
	// Swaps counts profile hot-swaps; EnginesRetired counts pooled or
	// per-session engines discarded for being a generation behind.
	Swaps          uint64
	EnginesRetired uint64
	// Observe, Flush, and SinkDelivery are the latency histograms of the
	// per-call scoring path, the flush/close path, and async sink deliveries.
	// Observe.Sum == LatencyNanos and Observe.Count == Calls.
	Observe      HistogramSnapshot
	Flush        HistogramSnapshot
	SinkDelivery HistogramSnapshot
}

// AlertTotal sums the per-flag alert counts.
func (s CountersSnapshot) AlertTotal() uint64 {
	var t uint64
	for _, v := range s.Alerts {
		t += v
	}
	return t
}

// AvgLatencyNanos returns the mean per-call processing time, 0 before any
// call.
func (s CountersSnapshot) AvgLatencyNanos() int64 {
	if s.Calls == 0 {
		return 0
	}
	return s.LatencyNanos / int64(s.Calls)
}

// MaxLatencyNanos returns the largest single-call processing time observed.
func (s CountersSnapshot) MaxLatencyNanos() int64 { return s.Observe.Max }

// Snapshot reads the counters. Individual fields are each read atomically;
// the snapshot as a whole is not a single atomic cut, which is fine for
// monitoring.
func (c *Counters) Snapshot() CountersSnapshot {
	s := CountersSnapshot{
		Calls:          c.calls.Load(),
		Dropped:        c.dropped.Load(),
		Shed:           c.shed.Load(),
		QueueHighWater: c.queueHighWater.Load(),
		ActiveSessions: c.sessions.Load(),
		SessionsOpened: c.opened.Load(),
		Panics:         c.panics.Load(),
		WorkerRestarts: c.workerRestarts.Load(),
		Quarantined:    c.quarantined.Load(),
		SinkDropped:    c.sinkDropped.Load(),
		SinkPanics:     c.sinkPanics.Load(),
		Swaps:          c.swaps.Load(),
		EnginesRetired: c.enginesRetired.Load(),
		Observe:        c.observe.Snapshot(),
		Flush:          c.flush.Snapshot(),
		SinkDelivery:   c.sinkDeliver.Snapshot(),
	}
	s.LatencyNanos = s.Observe.Sum
	for i := range s.Alerts {
		s.Alerts[i] = c.alerts[i].Load()
	}
	for i := range s.ChannelAlerts {
		s.ChannelAlerts[i] = c.channels[i].Load()
	}
	return s
}
