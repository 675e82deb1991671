// Package trace is the zero-dependency distributed-tracing layer of the
// detection pipeline: a span model (trace ID, span ID, parent, monotonic
// start/duration, stage name, typed attributes) plus a bounded store of
// completed traces, a retain.Log like the runtime's decision log — healthy
// traces are sampled 1-in-N, alert-bearing traces are always kept.
//
// One trace covers one ingest event / observe op end to end: a root span
// ("ingest" on the network path, "observe" on the direct Session API)
// with child spans for tenant routing, shed admission, engine scoring
// (including per-channel judgement and fusion spans on flagged windows),
// and asynchronous sink delivery. The live builder (Active) is refcounted
// so the sink's delivery goroutine can append its span after the worker
// finished the op; the trace commits to the store when the last reference
// is released.
//
// Tracing pays only for the traces it keeps. The builder is pooled and
// records spans and attributes into storage it owns, so a trace the
// sampling gate passes over allocates nothing; a kept trace is encoded once
// into one compact byte slice (codec.go), which reads decode.
//
// Like obsv, the package never imports what it observes: ingest, tenant,
// runtime, and detect all speak to it through values and callbacks.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adprom/internal/retain"
)

// Kind discriminates the live value field of an Attr.
type Kind uint8

// Attribute value kinds.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
)

// Attr is one typed span attribute. The struct is flat (no interface boxing)
// and recording copies it into the trace's arena, so building attributes on
// the hot path allocates nothing.
type Attr struct {
	Key   string
	Kind  Kind
	Str   string
	Int   int64
	Float float64
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: KindString, Str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, Int: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Kind: KindFloat, Float: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: KindBool}
	if v {
		a.Int = 1
	}
	return a
}

// Value returns the attribute's live value as an any (for rendering).
func (a Attr) Value() any {
	switch a.Kind {
	case KindInt:
		return a.Int
	case KindFloat:
		return a.Float
	case KindBool:
		return a.Int != 0
	default:
		return a.Str
	}
}

// MarshalJSON renders the attribute as {"key": ..., "value": ...}.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}{a.Key, a.Value()})
}

// UnmarshalJSON accepts the MarshalJSON form, mapping JSON numbers back to
// float attributes (the explain tool only reads values, never kinds).
func (a *Attr) UnmarshalJSON(data []byte) error {
	var raw struct {
		Key   string `json:"key"`
		Value any    `json:"value"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	a.Key = raw.Key
	switch v := raw.Value.(type) {
	case string:
		*a = String(raw.Key, v)
	case bool:
		*a = Bool(raw.Key, v)
	case float64:
		*a = Float(raw.Key, v)
	default:
		*a = String(raw.Key, fmt.Sprint(v))
	}
	return nil
}

// Span is one completed pipeline stage within a trace. IDs are sequential
// per trace starting at 1 (the root); Parent 0 marks the root span.
type Span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Stage    string `json:"stage"`
	Start    int64  `json:"start_unix_nanos"`
	Duration int64  `json:"duration_nanos"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// Attr returns the span attribute with the given key, and whether it exists.
func (s *Span) Attr(key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Trace is one completed end-to-end decision trace.
type Trace struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant,omitempty"`
	Session string `json:"session"`
	// Alert reports whether this op raised at least one alert; alert traces
	// are exempt from the healthy 1-in-N retention sampling.
	Alert bool   `json:"alert"`
	Spans []Span `json:"spans"`
	// Dropped counts spans discarded because the per-trace span cap was hit.
	Dropped int `json:"dropped_spans,omitempty"`
}

// Span returns the first span with the given stage name, nil when absent.
func (t *Trace) Span(stage string) *Span {
	for i := range t.Spans {
		if t.Spans[i].Stage == stage {
			return &t.Spans[i]
		}
	}
	return nil
}

// Context carries wire-level trace metadata from the ingest front door to
// the runtime that opens the trace. The zero value is valid: an empty ID
// asks the store to assign one, a zero Start means "now".
type Context struct {
	// ID is the client-supplied trace ID ("" = server-assigned). An ID longer
	// than MaxIDLen bytes is treated as absent.
	ID string
	// Start is when the event entered the process (the ingest decode time),
	// so the root span covers queueing ahead of the worker.
	Start time.Time
	// Remote and Codec describe the ingest connection, recorded as root-span
	// attributes.
	Remote string
	Codec  string
	// Tenant is stamped by the tenant router.
	Tenant string
}

// MaxIDLen bounds a client-supplied trace ID. Ingest accepts IDs as long as
// a frame string or an NDJSON line, and every retained trace and decision
// holds its ID, so Begin replaces a longer ID with a store-assigned one and
// counts the replacement (Store.IDsReplaced).
const MaxIDLen = 128

// maxSpans bounds one trace's span count; a runaway op drops further spans
// and counts them in Trace.Dropped instead of growing without bound.
const maxSpans = 256

// now is the package's clock; tests pin it to render fixed timelines.
var now = time.Now

// Active is a live trace being built while its op flows through the
// pipeline. It is refcounted: the worker that finishes the op holds the
// initial reference and every async alert delivery holds one more, so the
// sink span lands before the trace commits. All methods are safe on a nil
// receiver (tracing disabled) and safe for concurrent use.
//
// An Active is pooled by its store and owns its span slice and an attribute
// arena: StartSpan, Event and SpanHandle.End copy their attributes into the
// arena, so a call site's variadic attribute list stays on its stack and a
// trace the retention gate samples out allocates nothing.
type Active struct {
	store *Store
	refs  atomic.Int32
	alert atomic.Bool

	mu sync.Mutex
	// tr is the trace under construction. tr.ID is the client-supplied ID,
	// or "" for a store-assigned ID (num) until ID first formats it.
	tr     Trace
	num    uint64
	attrs  []Attr // the arena every span's Attrs slice points into
	closed bool   // root span duration stamped
	start  time.Time
	enc    []byte // commit's encoding scratch, reused by the pooled Active
}

// SpanHandle is an open span returned by StartSpan; End completes it.
type SpanHandle struct {
	a     *Active
	id    uint64
	start time.Time
}

// ID returns the trace ID, "" on a nil Active. A store-assigned ID is
// formatted by the first call.
func (a *Active) ID() string {
	if a == nil {
		return ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tr.ID == "" {
		var buf [16]byte
		a.tr.ID = string(appendHexID(buf[:0], a.num))
	}
	return a.tr.ID
}

// Alerted reports whether MarkAlert was called.
func (a *Active) Alerted() bool { return a != nil && a.alert.Load() }

// MarkAlert pins this trace as alert-bearing: it will always be retained,
// bypassing the healthy-trace sampling gate.
func (a *Active) MarkAlert() {
	if a != nil {
		a.alert.Store(true)
	}
}

// Ref adds one reference; the holder must call Release exactly once.
func (a *Active) Ref() {
	if a != nil {
		a.refs.Add(1)
	}
}

// StartSpan opens a child span under parent (use RootSpan for top-level
// stages). The returned handle's End completes it; a handle from a nil
// Active is inert.
func (a *Active) StartSpan(parent uint64, stage string) SpanHandle {
	if a == nil {
		return SpanHandle{}
	}
	t := now()
	a.mu.Lock()
	id := a.add(parent, stage, t.UnixNano(), 0, nil)
	a.mu.Unlock()
	if id == 0 {
		return SpanHandle{}
	}
	return SpanHandle{a: a, id: id, start: t}
}

// ID returns the open span's ID, 0 when inert.
func (h SpanHandle) ID() uint64 { return h.id }

// End completes the span, stamping its monotonic duration and copying attrs
// into the trace's arena.
func (h SpanHandle) End(attrs ...Attr) {
	a := h.a
	if a == nil {
		return
	}
	d := now().Sub(h.start).Nanoseconds()
	a.mu.Lock()
	sp := &a.tr.Spans[h.id-1]
	sp.Duration = d
	sp.Attrs = a.arena(attrs)
	a.mu.Unlock()
}

// Event records one already-completed span whose work ran from start to
// now, returning its span ID (0 when dropped or nil). attrs are copied into
// the trace's arena.
func (a *Active) Event(parent uint64, stage string, start time.Time, attrs ...Attr) uint64 {
	if a == nil {
		return 0
	}
	d := now().Sub(start).Nanoseconds()
	a.mu.Lock()
	id := a.add(parent, stage, start.UnixNano(), d, attrs)
	a.mu.Unlock()
	return id
}

// add appends one span with a copy of attrs and returns its ID, or counts
// it dropped and returns 0 at the span cap. The caller holds mu.
func (a *Active) add(parent uint64, stage string, start, dur int64, attrs []Attr) uint64 {
	if len(a.tr.Spans) >= maxSpans {
		a.tr.Dropped++
		return 0
	}
	id := uint64(len(a.tr.Spans) + 1)
	a.tr.Spans = append(a.tr.Spans, Span{
		ID: id, Parent: parent, Stage: stage,
		Start: start, Duration: dur, Attrs: a.arena(attrs),
	})
	return id
}

// arena copies attrs onto the end of the attribute arena and returns the
// copy, nil for none. A span keeps the slice it got even when a later append
// moves the arena: the old array is never written again. The caller holds
// mu.
func (a *Active) arena(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	n := len(a.attrs)
	a.attrs = append(a.attrs, attrs...)
	return a.attrs[n:len(a.attrs):len(a.attrs)]
}

// RootSpan is the span ID of the root span every Begin creates.
const RootSpan uint64 = 1

// Finish stamps the root span's duration (idempotently) and releases the
// creator's reference. Async holders (sink deliveries) still keep the trace
// alive until their own Release.
func (a *Active) Finish() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		a.tr.Spans[0].Duration = now().Sub(a.start).Nanoseconds()
	}
	a.mu.Unlock()
	a.Release()
}

// Release drops one reference; the last release commits the trace to the
// store (subject to the healthy sampling gate).
func (a *Active) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) == 0 {
		a.store.commit(a)
	}
}

// Store is a bounded store of completed traces with keep-alerts retention
// (a retain.Log): healthy traces pass a 1-in-N sampling gate at commit,
// alert traces are always kept and evicted only by newer alert traces.
// Hot-path cost while a trace is open is one mutex-guarded append per span
// into the pooled Active; a kept trace is encoded once into one compact
// byte slice (see encode), and Traces and TraceByID decode on read.
type Store struct {
	log         *retain.Log[[]byte]
	seed        uint64
	ctr         atomic.Uint64
	idsReplaced atomic.Uint64

	pool sync.Pool // *Active
}

// NewStore builds a trace store retaining up to capacity healthy traces and
// up to capacity alert traces, sampling one in sampleEvery healthy traces
// (alert traces are always kept). capacity ≤ 0 returns nil — tracing
// disabled; sampleEvery ≤ 1 keeps every healthy trace.
func NewStore(capacity, sampleEvery int) *Store {
	if capacity <= 0 {
		return nil
	}
	return &Store{
		log:  retain.NewLog[[]byte](capacity, sampleEvery),
		seed: mix(uint64(now().UnixNano())),
	}
}

// Enabled reports whether the store retains traces.
func (s *Store) Enabled() bool { return s != nil }

// Stored returns the number of traces committed; SampledOut the healthy
// traces the retention gate discarded; IDsReplaced the client-supplied IDs
// longer than MaxIDLen that Begin replaced with store-assigned ones.
func (s *Store) Stored() uint64 {
	if s == nil {
		return 0
	}
	return s.log.Kept()
}

func (s *Store) SampledOut() uint64 {
	if s == nil {
		return 0
	}
	return s.log.SampledOut()
}

func (s *Store) IDsReplaced() uint64 {
	if s == nil {
		return 0
	}
	return s.idsReplaced.Load()
}

// Begin opens a trace for one op, creating its root span. The trace ID is
// tc.ID when the client supplied one of at most MaxIDLen bytes, otherwise
// store-assigned. Returns nil (tracing off) on a nil store.
func (s *Store) Begin(tc Context, session, stage string) *Active {
	if s == nil {
		return nil
	}
	a, _ := s.pool.Get().(*Active)
	if a == nil {
		a = &Active{store: s}
	}
	a.refs.Store(1)
	a.alert.Store(false)
	start := tc.Start
	if start.IsZero() {
		start = now()
	}
	a.start = start
	a.num = 0
	id := tc.ID
	if len(id) > MaxIDLen {
		id = ""
		s.idsReplaced.Add(1)
	}
	if id == "" {
		a.num = mix(s.seed + s.ctr.Add(1))
	}
	a.closed = false
	a.attrs = a.attrs[:0]
	var root [2]Attr
	n := 0
	if tc.Remote != "" {
		root[n] = String("remote", tc.Remote)
		n++
	}
	if tc.Codec != "" {
		root[n] = String("codec", tc.Codec)
		n++
	}
	a.tr = Trace{ID: id, Tenant: tc.Tenant, Session: session, Spans: append(a.tr.Spans[:0], Span{
		ID: RootSpan, Stage: stage, Start: start.UnixNano(), Attrs: a.arena(root[:n]),
	})}
	return a
}

// commit applies the retention policy to a finished trace and recycles the
// Active: a kept trace is encoded into one exactly sized byte slice, a
// sampled-out one costs nothing.
func (s *Store) commit(a *Active) {
	alert := a.alert.Load()
	if s.log.Admit(alert) {
		a.tr.Alert = alert
		a.enc = a.encode(a.enc[:0])
		s.log.Add(bytes.Clone(a.enc), alert)
	}
	s.pool.Put(a)
}

// Traces returns up to limit retained traces, newest first (alert and
// healthy traces merged by commit order). limit ≤ 0 returns everything.
func (s *Store) Traces(limit int) []Trace {
	if s == nil {
		return nil
	}
	encs := s.log.Newest(limit)
	out := make([]Trace, len(encs))
	for i, b := range encs {
		out[i] = decode(b)
	}
	return out
}

// TraceByID returns the newest retained trace with the given ID. The match
// reads only the ID that leads each encoding.
func (s *Store) TraceByID(id string) (Trace, bool) {
	if s == nil {
		return Trace{}, false
	}
	b, ok := s.log.Find(func(b *[]byte) bool { return encodedIDIs(*b, id) })
	if !ok {
		return Trace{}, false
	}
	return decode(b), true
}

// mix is the splitmix64 finalizer: cheap, well-distributed trace IDs from a
// seed + counter without math/rand.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// appendHexID appends x as 16 lowercase hex digits, the store-assigned ID
// form.
func appendHexID(dst []byte, x uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[x>>uint(shift)&0xf])
	}
	return dst
}
