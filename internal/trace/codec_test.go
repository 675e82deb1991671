package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// sameTrace is reflect.DeepEqual with floats compared bit for bit, so a NaN
// attribute equals itself and −0 differs from +0.
func sameTrace(x, y Trace) bool {
	if x.ID != y.ID || x.Tenant != y.Tenant || x.Session != y.Session || x.Alert != y.Alert ||
		x.Dropped != y.Dropped || len(x.Spans) != len(y.Spans) || (x.Spans == nil) != (y.Spans == nil) {
		return false
	}
	for i := range x.Spans {
		a, b := x.Spans[i], y.Spans[i]
		if a.ID != b.ID || a.Parent != b.Parent || a.Stage != b.Stage || a.Start != b.Start ||
			a.Duration != b.Duration || len(a.Attrs) != len(b.Attrs) || (a.Attrs == nil) != (b.Attrs == nil) {
			return false
		}
		for j := range a.Attrs {
			p, q := a.Attrs[j], b.Attrs[j]
			if math.Float64bits(p.Float) != math.Float64bits(q.Float) {
				return false
			}
			p.Float, q.Float = 0, 0
			if p != q {
				return false
			}
		}
	}
	return true
}

func roundTrip(t *testing.T, tr Trace) {
	t.Helper()
	if got := decode(encode(nil, &tr)); !sameTrace(got, tr) {
		t.Fatalf("decode(encode(t)) != t\n got %+v\nwant %+v", got, tr)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanPayload := math.Float64frombits(0x7ff8000000000001)
	long := strings.Repeat("λ", 200) // a multi-byte length prefix
	rich := Trace{
		ID: "golden", Tenant: "appb", Session: long, Alert: true, Dropped: 11,
		Spans: []Span{
			{ID: RootSpan, Stage: "ingest", Start: 1_700_000_000_000_000_000, Duration: 90_000,
				Attrs: []Attr{String("remote", "10.0.0.7:4242"), String("codec", "ndjson")}},
			{ID: 2, Parent: RootSpan, Stage: "score", Start: 1_700_000_000_000_004_000, Duration: -5,
				Attrs: []Attr{
					Int("calls", math.MaxInt64), Int("windows", math.MinInt64), Int("alerts", -1),
					Float("hmm_score", math.NaN()), Float("nan_payload", nanPayload),
					Float("hmm_threshold", math.Inf(1)), Float("sql_score", math.Inf(-1)),
					Float("margin", negZero), Float("score", 0), Float("tiny", math.SmallestNonzeroFloat64),
					Bool("flagged", true), Bool("escalated", false),
					String("", ""), String("verdict", "not-in-the-vocabulary"), String(long, long),
					{Key: "odd-bool", Kind: KindBool, Int: 7},
				}},
			{ID: 3, Parent: 2, Stage: "a stage of its own", Start: -3, Duration: math.MinInt64},
			{ID: math.MaxUint64, Parent: math.MaxUint64, Stage: "", Start: math.MaxInt64, Duration: math.MaxInt64,
				Attrs: []Attr{Float("score", -3.25)}},
		},
	}
	roundTrip(t, rich)
	roundTrip(t, Trace{})
	roundTrip(t, Trace{ID: strings.Repeat("x", MaxIDLen), Dropped: -1})

	full := Trace{ID: "full", Session: "s"}
	for i := 0; i < maxSpans; i++ {
		sp := Span{ID: uint64(i + 1), Parent: uint64(i), Stage: vocab[i%len(vocab)],
			Start: int64(i) * 1000, Duration: int64(i%7) - 3}
		if i%3 != 0 {
			sp.Attrs = []Attr{Int("seq", int64(i)), Float("score", -float64(i)/7)}
		}
		full.Spans = append(full.Spans, sp)
	}
	roundTrip(t, full)
}

// fuzzReader hands out fields of a generated trace; an exhausted input reads
// as zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// str reads a length byte (255 extends it by two more bytes, for multi-byte
// prefixes) and that many bytes; a length byte of 254 picks a vocabulary
// word by the next byte.
func (r *fuzzReader) str() string {
	n := int(r.byte())
	switch n {
	case 254:
		return vocab[int(r.byte())%len(vocab)]
	case 255:
		n = int(r.byte()) | int(r.byte())<<8
	}
	n = min(n, len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func traceFrom(data []byte) Trace {
	r := &fuzzReader{b: data}
	t := Trace{ID: r.str(), Tenant: r.str(), Session: r.str(), Alert: r.byte()&1 == 1, Dropped: int(int64(r.u64()))}
	nspans := (int(r.byte()) | int(r.byte())<<8) % (maxSpans + 1)
	for i := 0; i < nspans; i++ {
		sp := Span{ID: r.u64(), Parent: r.u64(), Stage: r.str(), Start: int64(r.u64()), Duration: int64(r.u64())}
		for n := r.byte() % 9; n > 0; n-- {
			key := r.str()
			switch Kind(r.byte() % 4) {
			case KindString:
				sp.Attrs = append(sp.Attrs, String(key, r.str()))
			case KindInt:
				sp.Attrs = append(sp.Attrs, Int(key, int64(r.u64())))
			case KindFloat:
				sp.Attrs = append(sp.Attrs, Float(key, math.Float64frombits(r.u64())))
			case KindBool:
				sp.Attrs = append(sp.Attrs, Bool(key, r.byte()&1 == 1))
			}
		}
		t.Spans = append(t.Spans, sp)
	}
	return t
}

// floatSeed is fuzz input for one span whose float attributes carry bits.
func floatSeed(bits ...uint64) []byte {
	b := []byte{2, 'i', 'd', 254, 0, 0, 1}                  // ID "id", vocabulary tenant, empty session, alert
	b = binary.LittleEndian.AppendUint64(b, 3)              // Dropped
	b = append(b, 1, 0)                                     // one span
	b = binary.LittleEndian.AppendUint64(b, 1)              // ID
	b = binary.LittleEndian.AppendUint64(b, 0)              // Parent
	b = append(b, 254, 6)                                   // Stage: vocab[6]
	b = binary.LittleEndian.AppendUint64(b, 1e18)           // Start
	b = binary.LittleEndian.AppendUint64(b, math.MaxUint64) // Duration −1
	b = append(b, byte(len(bits)))
	for _, x := range bits {
		b = append(b, 254, 30, byte(KindFloat))
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

// FuzzTraceCodec holds decode(encode(t)) equal to t over generated traces:
// arbitrary strings in and out of the vocabulary, every attribute kind, any
// float bits, negative durations and Start deltas that wrap, 0–256 spans and
// any Dropped count.
func FuzzTraceCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(floatSeed(math.Float64bits(math.NaN()), 0x7ff8000000000001, math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)), 1<<63, 0))
	f.Add(bytes.Repeat([]byte{0xff}, 512))
	f.Add(append([]byte{255, 0, 1}, bytes.Repeat([]byte{'x'}, 300)...))
	f.Add(append(bytes.Repeat([]byte{0}, 12), 0, 1)) // 256 zero spans
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, traceFrom(data))
	})
}

// pinClock replaces the package clock with one that stands still until the
// returned function advances it.
func pinClock(t *testing.T, at time.Time) (advance func(time.Duration)) {
	t.Cleanup(func() { now = time.Now })
	now = func() time.Time { return at }
	return func(d time.Duration) { at = at.Add(d) }
}

// TestTracesJSONGolden renders /traces and /traces/{id} for a fixed set of
// spans and compares the bytes with testdata/traces.golden.json, which the
// store rendered when it kept each trace as its span graph (before the
// compact encoding), under the same pinned clock.
func TestTracesJSONGolden(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 123_456_789)
	advance := pinClock(t, t0)
	s := NewStore(8, 1)

	// An alert on the network path: ingest, route, admit, score with a
	// judgement and a fusion verdict, and the asynchronous sink.
	a := s.Begin(Context{ID: "golden-alert", Remote: "10.0.0.7:4242", Codec: "ndjson", Tenant: "appb"}, "exfil-1", "ingest")
	start := now()
	advance(800 * time.Nanosecond)
	a.Event(RootSpan, "route", start, String("tenant", "appb"), Int("resident_shards", 1))
	start = now()
	advance(1500 * time.Nanosecond)
	a.Event(RootSpan, "admit", start, Int("queue_depth", 3), Int("worker", 1),
		String("policy", "block"), String("verdict", "admitted"), Int("shed_calls", 0))
	h := a.StartSpan(RootSpan, "score")
	advance(12 * time.Microsecond)
	a.Event(h.ID(), "score.hmm", now(), Int("seq", 17), Float("score", -4.75), Float("threshold", -3.5),
		Float("margin", 1.25), Float("score_error_bound", 0), Bool("flagged", true))
	a.Event(h.ID(), "fusion", now(), Float("fused_score", 0.8125), Float("hmm_margin", 1.25),
		Float("sql_margin", math.Copysign(0, -1)), Bool("escalated", true))
	advance(3 * time.Microsecond)
	h.End(Int("calls", 23), Int("windows", 9), Int("alerts", 1), String("scorer", "exact"), Int("generation", 2),
		Float("hmm_score", -4.75), Float("hmm_threshold", -3.5), Float("score_error_bound", 1e-300),
		Float("sql_score", -1.1), Float("sql_threshold", -0.6))
	a.MarkAlert()
	a.Ref()
	a.Finish()
	start = now()
	advance(40 * time.Microsecond)
	a.Event(RootSpan, "sink", start, String("verdict", "delivered"), String("flag", "DL"), Int("seq", 17))
	a.Release()

	// A healthy op on the direct API under a store-assigned ID.
	advance(time.Millisecond)
	b := s.Begin(Context{}, "quiet-session", "observe")
	start = now()
	advance(time.Microsecond)
	b.Event(RootSpan, "admit", start, Int("queue_depth", 0), Int("worker", 0),
		String("policy", "shed-by-risk"), String("verdict", "partial"), Int("shed_calls", 2))
	hs := b.StartSpan(RootSpan, "score")
	advance(2 * time.Microsecond)
	hs.End(Int("calls", 1), Int("windows", 0), Int("alerts", 0), String("scorer", "topk:8"), Int("generation", 1))
	b.Finish()

	// A flush whose score span never ended.
	c := s.Begin(Context{ID: "golden-open", Start: t0.Add(-time.Second)}, "s", "flush")
	c.StartSpan(RootSpan, "score")
	advance(time.Microsecond)
	c.Finish()

	var out bytes.Buffer
	enc := json.NewEncoder(&out) // as the introspection handler writes
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Traces(0)); err != nil {
		t.Fatal(err)
	}
	tr, ok := s.TraceByID("golden-alert")
	if !ok {
		t.Fatal("golden-alert not found")
	}
	if err := enc.Encode(tr); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/traces.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("/traces rendering changed:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

// sampledOutOp records the spans a traced ingest op records: route, admit,
// score with a judgement and a fusion verdict.
func sampledOutOp(s *Store, tc Context) {
	a := s.Begin(tc, "session", "ingest")
	a.Event(RootSpan, "route", time.Now(), String("tenant", "appb"), Int("resident_shards", 1))
	a.Event(RootSpan, "admit", time.Now(), Int("queue_depth", 3), Int("worker", 1),
		String("policy", "block"), String("verdict", "admitted"), Int("shed_calls", 0))
	h := a.StartSpan(RootSpan, "score")
	a.Event(h.ID(), "score.hmm", time.Now(), Int("seq", 17), Float("score", -4.75), Float("threshold", -3.5),
		Float("margin", 1.25), Float("score_error_bound", 0), Bool("flagged", true))
	a.Event(h.ID(), "fusion", time.Now(), Float("fused_score", 0.8125), Float("hmm_margin", 1.25),
		Float("sql_margin", -0.5), Bool("escalated", true))
	h.End(Int("calls", 23), Int("windows", 9), Int("alerts", 0), String("scorer", "exact"), Int("generation", 2),
		Float("hmm_score", -4.75), Float("hmm_threshold", -3.5), Float("score_error_bound", 0),
		Float("sql_score", -1.1), Float("sql_threshold", -0.6))
	a.Finish()
}

// raceEnabled is set under -race (race_test.go), whose instrumentation
// allocates on its own.
var raceEnabled bool

// TestSampledOutTraceAllocatesNothing pins the cost model: a trace the gate
// samples out allocates nothing, and a kept trace allocates exactly its
// encoding.
func TestSampledOutTraceAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	tc := Context{Start: time.Now(), Remote: "10.0.0.7:4242", Codec: "binary", Tenant: "appb"}
	out := NewStore(16, math.MaxInt)
	sampledOutOp(out, tc) // fill the pool
	if n := testing.AllocsPerRun(1000, func() { sampledOutOp(out, tc) }); n != 0 {
		t.Errorf("a sampled-out trace allocates %v times", n)
	}
	if out.Stored() != 0 {
		t.Fatalf("the gate kept %d traces", out.Stored())
	}

	kept := NewStore(4, 1)
	for i := 0; i < 8; i++ {
		sampledOutOp(kept, tc) // fill both rings
	}
	if n := testing.AllocsPerRun(1000, func() { sampledOutOp(kept, tc) }); n != 1 {
		t.Errorf("a kept trace allocates %v times, want 1 (its encoding)", n)
	}
}
