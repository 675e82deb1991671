package runtime

import (
	"io"
	"strconv"

	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/metrics"
	"adprom/internal/obsv"
	"adprom/internal/shed"
	"adprom/internal/trace"
)

// countersMetric maps every metrics.CountersSnapshot field to the Prometheus
// family it is exported under — by a lone Runtime and, with a tenant label,
// by every shard of a fleet, since both render through WritePrometheusSet.
// The reflection test holds the map bidirectional: adding a counter field
// without extending this map (and the rendering below) fails CI instead of
// silently hiding the new counter from /metrics, and so does a stale entry.
var countersMetric = map[string]string{
	"Calls":          "adprom_calls_total",
	"Dropped":        "adprom_dropped_total",
	"Shed":           "adprom_shed_calls_total",
	"QueueHighWater": "adprom_queue_high_water",
	"Alerts":         "adprom_alerts_total",
	"ChannelAlerts":  "adprom_channel_alerts_total",
	"LatencyNanos":   "adprom_observe_latency_seconds_sum",
	"ActiveSessions": "adprom_active_sessions",
	"SessionsOpened": "adprom_sessions_opened_total",
	"Panics":         "adprom_panics_total",
	"WorkerRestarts": "adprom_worker_restarts_total",
	"Quarantined":    "adprom_quarantined_sessions_total",
	"SinkDropped":    "adprom_sink_dropped_total",
	"SinkPanics":     "adprom_sink_panics_total",
	"Swaps":          "adprom_profile_swaps_total",
	"EnginesRetired": "adprom_engines_retired_total",
	"Observe":        "adprom_observe_latency_seconds",
	"Flush":          "adprom_flush_latency_seconds",
	"SinkDelivery":   "adprom_sink_delivery_seconds",
}

// Labelled is one runtime on a shared scrape with the labels its samples
// carry: none for a lone Runtime, {tenant} for each shard of a fleet.
type Labelled struct {
	Labels  [][2]string
	Runtime *Runtime
}

// promSnap is one runtime's exposition input: its counters, shed state and
// queue depths are snapshotted once per scrape.
type promSnap struct {
	labels [][2]string
	rt     *Runtime
	ctr    metrics.CountersSnapshot
	shed   shed.Snapshot
	depths []int
}

func (rt *Runtime) promSnap(labels [][2]string) promSnap {
	s := promSnap{labels: labels, rt: rt, ctr: rt.ctr.Snapshot(), depths: rt.WorkerQueueDepths()}
	if rt.shed != nil {
		s.shed = rt.shed.Snapshot()
	}
	return s
}

// with returns labels plus one more pair, never aliasing labels' storage.
func with(labels [][2]string, name, value string) [][2]string {
	return append(labels[:len(labels):len(labels)], [2]string{name, value})
}

// WritePrometheus renders the runtime's counters, gauges, and latency
// histograms in the Prometheus text exposition format — the body of the
// introspection endpoint's /metrics.
func (rt *Runtime) WritePrometheus(w io.Writer) error {
	return WritePrometheusSet(w, Labelled{Runtime: rt})
}

// WritePrometheusSet renders every runtime family once, with one labelled
// sample set per runtime in rts, followed by the process-wide Go runtime and
// build families. A fleet passes one {tenant} pair per resident shard, so
// its scrape carries exactly the families of a lone Runtime under the same
// names; with no runtimes the families keep their headers and carry no
// samples.
func WritePrometheusSet(w io.Writer, rts ...Labelled) error {
	snaps := make([]promSnap, len(rts))
	for i, l := range rts {
		snaps[i] = l.Runtime.promSnap(l.Labels)
	}
	p := obsv.NewPromWriter(w)
	m := countersMetric
	family := func(name, typ, help string, val func(*promSnap) float64) {
		p.Family(name, typ, help)
		for i := range snaps {
			p.Sample(name, snaps[i].labels, val(&snaps[i]))
		}
	}
	counter := func(name, help string, val func(*promSnap) uint64) {
		family(name, "counter", help, func(s *promSnap) float64 { return float64(val(s)) })
	}
	gauge := func(name, help string, val func(*promSnap) float64) { family(name, "gauge", help, val) }
	// byLabel renders a family with one sample per runtime and label value.
	byLabel := func(name, typ, help, label string, values []string, val func(*promSnap, int) float64) {
		p.Family(name, typ, help)
		for i := range snaps {
			for j, v := range values {
				p.Sample(name, with(snaps[i].labels, label, v), val(&snaps[i], j))
			}
		}
	}
	// The histograms carry LatencyNanos (= Observe.Sum) as their _sum series.
	histogram := func(name, help string, val func(*promSnap) metrics.HistogramSnapshot) {
		p.Family(name, "histogram", help)
		for i := range snaps {
			p.HistogramSamples(name, snaps[i].labels, val(&snaps[i]))
		}
	}

	counter(m["Calls"], "Calls scored by detection workers.", func(s *promSnap) uint64 { return s.ctr.Calls })
	counter(m["Dropped"], "Calls discarded unscored after a session failed or at shutdown.", func(s *promSnap) uint64 { return s.ctr.Dropped })
	counter(m["Shed"], "Calls rejected by the risk-aware admission controller.", func(s *promSnap) uint64 { return s.ctr.Shed })
	gauge(m["QueueHighWater"], "Lifetime maximum pending-call depth on any single worker queue.",
		func(s *promSnap) float64 { return float64(s.ctr.QueueHighWater) })
	flags := make([]string, metrics.NumFlags)
	for f := range flags {
		flags[f] = detect.Flag(f).String()
	}
	byLabel(m["Alerts"], "counter", "Alerts raised, by flag.", "flag", flags,
		func(s *promSnap, f int) float64 { return float64(s.ctr.Alerts[f]) })
	byLabel(m["ChannelAlerts"], "counter", "Alert provenance by detection channel (one alert can count against several).",
		"channel", detect.ChannelNames[:], func(s *promSnap, ch int) float64 { return float64(s.ctr.ChannelAlerts[ch]) })
	gauge(m["ActiveSessions"], "Sessions currently open.", func(s *promSnap) float64 { return float64(s.ctr.ActiveSessions) })
	counter(m["SessionsOpened"], "Sessions opened since start.", func(s *promSnap) uint64 { return s.ctr.SessionsOpened })
	counter(m["Panics"], "Panics recovered on detection workers.", func(s *promSnap) uint64 { return s.ctr.Panics })
	counter(m["WorkerRestarts"], "Supervised worker restarts.", func(s *promSnap) uint64 { return s.ctr.WorkerRestarts })
	counter(m["Quarantined"], "Sessions quarantined after a failure.", func(s *promSnap) uint64 { return s.ctr.Quarantined })
	counter(m["SinkDropped"], "Alerts shed because the async sink buffer was full.", func(s *promSnap) uint64 { return s.ctr.SinkDropped })
	counter(m["SinkPanics"], "Panics recovered from the user's alert sink.", func(s *promSnap) uint64 { return s.ctr.SinkPanics })
	counter(m["Swaps"], "Profile hot-swaps published.", func(s *promSnap) uint64 { return s.ctr.Swaps })
	counter(m["EnginesRetired"], "Engines discarded for being a generation behind.", func(s *promSnap) uint64 { return s.ctr.EnginesRetired })

	histogram(m["Observe"], "Engine scoring latency per call. An observe op of n calls records its mean per-call latency n times, "+
		"so for batched ops the quantiles are quantiles of per-op means, not of single calls.",
		func(s *promSnap) metrics.HistogramSnapshot { return s.ctr.Observe })
	histogram(m["Flush"], "Flush/close op processing latency.", func(s *promSnap) metrics.HistogramSnapshot { return s.ctr.Flush })
	histogram(m["SinkDelivery"], "Alert delivery duration at the user sink.", func(s *promSnap) metrics.HistogramSnapshot { return s.ctr.SinkDelivery })

	gauge("adprom_profile_generation", "Serving profile generation (1 until the first swap).",
		func(s *promSnap) float64 { return float64(s.rt.cur.Load().gen) })
	gauge("adprom_workers", "Detection worker count.", func(s *promSnap) float64 { return float64(s.rt.cfg.workers) })
	gauge("adprom_queue_capacity", "Per-worker ingest queue capacity.", func(s *promSnap) float64 { return float64(s.rt.cfg.queueDepth) })
	p.Family("adprom_worker_queue_depth", "gauge", "Pending calls per worker ingest queue.")
	for i := range snaps {
		for wk, d := range snaps[i].depths {
			p.Sample("adprom_worker_queue_depth", with(snaps[i].labels, "worker", strconv.Itoa(wk)), float64(d))
		}
	}
	gauge("adprom_queue_depth", "Calls waiting across all worker queues.", func(s *promSnap) float64 {
		depth := 0
		for _, d := range s.depths {
			depth += d
		}
		return float64(depth)
	})
	counter("adprom_decisions_recorded_total", "Provenance decisions written into the decision log.", func(s *promSnap) uint64 { return s.rt.decisions.Kept() })
	counter("adprom_decisions_sampled_out_total", "Unflagged judgements passed over by the 1-in-N sampler.",
		func(s *promSnap) uint64 { return s.rt.decisions.SampledOut() })
	counter("adprom_traces_stored_total", "Decision traces committed into the trace store (alerts plus sampled healthy traces).",
		func(s *promSnap) uint64 { return s.rt.traces.Stored() })
	counter("adprom_traces_sampled_out_total", "Healthy decision traces passed over by the trace sampling gate.",
		func(s *promSnap) uint64 { return s.rt.traces.SampledOut() })
	counter("adprom_trace_ids_replaced_total", "Client-supplied trace IDs over "+strconv.Itoa(trace.MaxIDLen)+" bytes that the trace store replaced with its own.",
		func(s *promSnap) uint64 { return s.rt.traces.IDsReplaced() })

	// Risk-aware shedding gauges: rendered whether or not the runtime sheds
	// by risk, so dashboards keyed on them never see the family disappear.
	gauge("adprom_shed_rate", "Fraction of offered calls rejected by risk-aware admission.", func(s *promSnap) float64 {
		if s.ctr.Shed == 0 {
			return 0
		}
		return float64(s.ctr.Shed) / float64(s.ctr.Shed+s.ctr.Calls)
	})
	gauge("adprom_shed_estimated_miss_probability", "Estimated fraction of alert evidence lost to shedding (shed risk mass over total).",
		func(s *promSnap) float64 { return s.shed.MissProbability })
	gauge("adprom_shed_engaged", "Whether any worker's admission controller is currently shedding (1) or passing everything (0).",
		func(s *promSnap) float64 {
			if s.shed.Engaged {
				return 1
			}
			return 0
		})
	counter("adprom_shed_decisions_total", "Admission decisions that rejected an op.", func(s *promSnap) uint64 { return s.shed.ShedDecisions })
	if err := p.Err(); err != nil {
		return err
	}
	// Process-level Go runtime health and build provenance ride on the same
	// scrape, rendered once whatever the number of runtimes.
	return obsv.WriteGoRuntimeProm(w, obsv.BuildInfo{ScorerDispatch: hmm.KernelName()})
}
