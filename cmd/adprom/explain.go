package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"adprom/internal/obsv"
	"adprom/internal/trace"
)

// cmdExplain reconstructs the forensic timeline behind one detection
// decision: every pipeline stage the op crossed (ingest, tenant routing,
// shed admission, per-channel scoring, fusion, sink delivery) with
// durations and the evidence each stage recorded. The key is either a trace
// ID (rendered directly) or a numeric alert sequence number, which is
// resolved through the decision log to the trace of the op that produced
// it. Live mode talks to a server's introspection endpoint; -log explains
// from a recorded /decisions JSON capture instead (judgements only — span
// timelines exist only on a server running with -trace).
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	httpAddr := fs.String("http", "localhost:9313", "introspection endpoint of the live server")
	tenantID := fs.String("tenant", "", "tenant scope (required when the server's fleet serves more than one tenant)")
	logPath := fs.String("log", "", "explain from a recorded /decisions JSON capture instead of a live server")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: adprom explain [-http <addr> | -log <decisions.json>] [-tenant <id>] <alert-seq|trace-id>")
	}
	key := fs.Arg(0)
	if *logPath != "" {
		return explainLog(os.Stdout, *logPath, key)
	}
	return explainLive(os.Stdout, *httpAddr, *tenantID, key)
}

// explainLive renders the timeline from a running server: the decision log
// correlates a numeric alert seq to its trace ID, /traces/{id} supplies the
// span timeline, and every judgement sharing the trace is appended as
// evidence.
func explainLive(w io.Writer, addr, tenantID, key string) error {
	ds, dsErr := fetchDecisions(addr, tenantID)
	traceID := key
	if _, err := strconv.Atoi(key); err == nil {
		// A bare number is an alert sequence; only the decision log can map
		// it to the op's trace.
		if dsErr != nil {
			return fmt.Errorf("resolving alert seq %s needs the decision log: %w", key, dsErr)
		}
		d, err := decisionBySeq(ds, key)
		if err != nil {
			return err
		}
		if d.Trace == "" {
			return fmt.Errorf("decision seq %s carries no trace ID — is the server running with -trace?", key)
		}
		traceID = d.Trace
	}

	var tr trace.Trace
	if err := fetchJSON(traceURL(addr, traceID), &tr); err != nil {
		return fmt.Errorf("fetching trace %s: %w", traceID, err)
	}
	renderTrace(w, tr)
	if dsErr == nil {
		renderDecisions(w, correlate(ds, traceID))
	}
	return nil
}

// explainLog renders what a /decisions capture alone can prove: the
// judgement evidence for the requested alert, plus every other judgement
// recorded under the same trace ID.
func explainLog(w io.Writer, path, key string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ds []obsv.Decision
	if err := json.Unmarshal(data, &ds); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var matched []obsv.Decision
	if _, err := strconv.Atoi(key); err == nil {
		d, err := decisionBySeq(ds, key)
		if err != nil {
			return err
		}
		if d.Trace != "" {
			matched = correlate(ds, d.Trace)
		} else {
			matched = []obsv.Decision{d}
		}
	} else {
		if matched = correlate(ds, key); len(matched) == 0 {
			return fmt.Errorf("no decision in %s references trace %s", path, key)
		}
	}
	fmt.Fprintf(w, "decision log capture %s (judgements only; span timelines live on a server running with -trace)\n", path)
	renderDecisions(w, matched)
	return nil
}

func fetchDecisions(addr, tenantID string) ([]obsv.Decision, error) {
	url := "http://" + addr + "/decisions?limit=0"
	if tenantID != "" {
		url += "&tenant=" + tenantID
	}
	var ds []obsv.Decision
	if err := fetchJSON(url, &ds); err != nil {
		return nil, err
	}
	return ds, nil
}

func traceURL(addr, id string) string { return "http://" + addr + "/traces/" + id }

func fetchJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, firstLine(body))
	}
	return json.Unmarshal(body, into)
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}

// decisionBySeq resolves a numeric alert seq against the decision log. A
// flagged match wins over sampled Normal judgements and the newest match
// wins (logs are newest-first). Seq numbers are per session, so a seq whose
// flagged matches come from more than one (session, trace) pair is
// ambiguous, and so is one with no flagged match whose sampled matches come
// from more than one session: the error lists each origin for the operator
// to rerun with a trace ID (sampled judgements carry none).
func decisionBySeq(ds []obsv.Decision, key string) (obsv.Decision, error) {
	n, _ := strconv.Atoi(key)
	type origin struct{ session, trace string }
	for _, flagged := range []bool{true, false} {
		var origins []origin
		var match *obsv.Decision
		for i := range ds {
			d := &ds[i]
			if d.Seq != n || d.Flagged != flagged {
				continue
			}
			if match == nil {
				match = d
			}
			if o := (origin{d.Session, d.Trace}); !slices.Contains(origins, o) {
				origins = append(origins, o)
			}
		}
		if len(origins) > 1 {
			var b strings.Builder
			if flagged {
				fmt.Fprintf(&b, "alert seq %d is ambiguous: %d (session, trace) pairs raised an alert at it; rerun with a trace ID:", n, len(origins))
			} else {
				fmt.Fprintf(&b, "seq %d is ambiguous: no alert has it, and %d sessions recorded a sampled judgement at it:", n, len(origins))
			}
			for _, o := range origins {
				fmt.Fprintf(&b, "\n  session=%s trace=%s", o.session, orDash(o.trace))
			}
			return obsv.Decision{}, errors.New(b.String())
		}
		if match != nil {
			return *match, nil
		}
	}
	return obsv.Decision{}, fmt.Errorf("no decision with seq %d in the log (each shard keeps its newest 1,024 alerts; older ones are evicted)", n)
}

// correlate returns every decision recorded under the trace, oldest first.
func correlate(ds []obsv.Decision, traceID string) []obsv.Decision {
	var out []obsv.Decision
	for _, d := range ds {
		if d.Trace == traceID {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].UnixNanos < out[j].UnixNanos })
	return out
}

// renderTrace prints the span timeline as an indented tree: each line is a
// stage with its offset from the op's start, its duration, and the
// attributes the stage recorded (scores, thresholds, margins, verdicts).
func renderTrace(w io.Writer, tr trace.Trace) {
	status := "healthy"
	if tr.Alert {
		status = "ALERT"
	}
	fmt.Fprintf(w, "trace %s  tenant=%s session=%s  %s\n", tr.ID, orDash(tr.Tenant), tr.Session, status)
	if len(tr.Spans) == 0 {
		fmt.Fprintln(w, "  (no spans recorded)")
		return
	}
	var origin int64
	for i, s := range tr.Spans {
		if i == 0 || s.Start < origin {
			origin = s.Start
		}
	}
	children := map[uint64][]int{}
	for i, s := range tr.Spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		idx := children[parent]
		sort.SliceStable(idx, func(a, b int) bool { return tr.Spans[idx[a]].Start < tr.Spans[idx[b]].Start })
		for _, i := range idx {
			s := tr.Spans[i]
			fmt.Fprintf(w, "  %-11s %-9s %s%s", "+"+shortDuration(s.Start-origin),
				shortDuration(s.Duration), indent(depth), s.Stage)
			for _, a := range s.Attrs {
				fmt.Fprintf(w, " %s=%s", a.Key, attrValue(a))
			}
			fmt.Fprintln(w)
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "  (%d spans dropped at the per-trace cap)\n", tr.Dropped)
	}
}

// renderDecisions prints the judgement evidence correlated with a trace:
// the scores against their thresholds (with the margin that made the call)
// of each channel the decision carries a judgement from, the fused score
// when channels were combined, and the profile generation that judged the
// window.
func renderDecisions(w io.Writer, ds []obsv.Decision) {
	if len(ds) == 0 {
		fmt.Fprintln(w, "no correlated judgements in the decision log (healthy windows are sampled)")
		return
	}
	for _, d := range ds {
		verdict := "normal"
		if d.Flagged {
			verdict = d.Flag
		}
		if d.Shed {
			verdict = "shed"
		}
		fmt.Fprintf(w, "judgement seq=%d session=%s verdict=%s generation=%d\n",
			d.Seq, d.Session, verdict, d.Generation)
		if d.Shed {
			fmt.Fprintf(w, "  shed:  calls=%d session_total=%d risk=%.4f queue_occupancy=%.2f\n",
				d.ShedCalls, d.SessionShed, d.Risk, d.Occupancy)
			continue
		}
		if d.Threshold != 0 || d.Score != 0 {
			fmt.Fprintf(w, "  hmm:   score=%.6f threshold=%.6f margin=%.6f", d.Score, d.Threshold, d.Threshold-d.Score)
			if d.ScoreErrorBound != 0 {
				fmt.Fprintf(w, " error_bound=%.3g", d.ScoreErrorBound)
			}
			fmt.Fprintln(w)
		}
		if d.SQLThreshold != 0 || d.SQLScore != 0 {
			fmt.Fprintf(w, "  sql:   score=%.6f threshold=%.6f margin=%.6f\n",
				d.SQLScore, d.SQLThreshold, d.SQLThreshold-d.SQLScore)
		}
		if d.FusedScore != 0 {
			fmt.Fprintf(w, "  fused: score=%.6f channels=%s\n", d.FusedScore, joinOrDash(d.Channels))
		}
		if d.Label != "" || d.Caller != "" {
			fmt.Fprintf(w, "  call:  label=%s caller=%s\n", orDash(d.Label), orDash(d.Caller))
		}
	}
}

func indent(depth int) string {
	const pad = "                                "
	if depth *= 2; depth > len(pad) {
		depth = len(pad)
	}
	return pad[:depth]
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func joinOrDash(parts []string) string {
	if len(parts) == 0 {
		return "-"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "," + p
	}
	return out
}

// shortDuration renders nanoseconds with the readable truncation of
// time.Duration.String at each magnitude (1.234ms, 56µs, 2.5s).
func shortDuration(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

// attrValue formats one span attribute. JSON round-trips turn int attrs
// into floats, so integral floats render without a fractional part.
func attrValue(a trace.Attr) string {
	switch v := a.Value().(type) {
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(v, 10)
	case bool:
		return strconv.FormatBool(v)
	default:
		return a.Str
	}
}
