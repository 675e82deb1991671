// Package obsv is the observability layer of the detection runtime: the
// decision-provenance record (Decision, a compact per-window judgement
// answering "why did window W on session S flag under generation G?"), a
// Prometheus text-format renderer for the runtime's counters and latency
// histograms, and the live introspection HTTP handler (/metrics, /decisions,
// /healthz, /readyz, pprof).
//
// The package is deliberately free of runtime dependencies: the runtime
// keeps its decisions in a retain.Log it owns, and the HTTP handler is wired
// with plain functions, so obsv never imports the packages it observes.
package obsv

// Decision is the provenance record of one completed-window judgement: who
// (session), where (window-end sequence number in the stream), when (the
// op's single monotonic-clock capture, as wall nanoseconds), what the engine
// computed (per-symbol window log-probability against the threshold), the
// verdict, and which profile generation scored it. For alerts, Label and
// Caller identify the triggering call — the caller context that explains an
// OutOfContext flag. The struct is flat (its strings alias interned call
// metadata), so building one never allocates.
type Decision struct {
	Session    string  `json:"session"`
	Seq        int     `json:"seq"`
	UnixNanos  int64   `json:"unix_nanos"`
	Score      float64 `json:"score"`
	Threshold  float64 `json:"threshold"`
	Flag       string  `json:"flag"`
	Flagged    bool    `json:"flagged"`
	Generation uint64  `json:"generation"`
	Label      string  `json:"label,omitempty"`
	Caller     string  `json:"caller,omitempty"`
	// ScoreErrorBound is the per-symbol bound on |approx−exact| of Score when
	// the session scored under a pruned (top-K) kernel; 0 under the exact
	// kernel. A vacuous (+Inf) bound is clamped to MaxFloat64 so the decision
	// log stays valid JSON.
	ScoreErrorBound float64 `json:"score_error_bound,omitempty"`

	// Channel provenance: which detection channels raised this alert
	// (detect.ChannelNames entries), the SQL channel's window judgement, and
	// the fused anomaly margin. All empty/zero on single-channel runtimes
	// and on sampled Normal judgements.
	Channels     []string `json:"channels,omitempty"`
	SQLScore     float64  `json:"sql_score,omitempty"`
	SQLThreshold float64  `json:"sql_threshold,omitempty"`
	FusedScore   float64  `json:"fused_score,omitempty"`

	// Shed provenance: when risk-aware admission rejects calls
	// instead of scoring them, the runtime records a Decision with Shed=true
	// so an operator can see exactly what was not scored and why. ShedCalls
	// is the number of calls rejected by this decision, SessionShed the
	// session's cumulative shed-call count, Risk the session's risk score at
	// decision time, and Occupancy the worker-queue occupancy (0..1) that
	// triggered shedding. All zero (and omitted from JSON) for scored
	// windows.
	Shed        bool    `json:"shed,omitempty"`
	ShedCalls   int     `json:"shed_calls,omitempty"`
	SessionShed uint64  `json:"session_shed,omitempty"`
	Risk        float64 `json:"risk,omitempty"`
	Occupancy   float64 `json:"occupancy,omitempty"`

	// Trace is the ID of the decision trace covering the op that raised
	// this alert, when tracing is enabled — the correlation key into
	// /traces/{id}. Only alerts carry one, because only alert traces are
	// pinned: a healthy op's trace may be sampled out of the store, so
	// sampled Normal and shed records leave it empty. Empty (and omitted,
	// keeping the decision log bit-identical to a trace-free build) when
	// tracing is off.
	Trace string `json:"trace,omitempty"`
}
