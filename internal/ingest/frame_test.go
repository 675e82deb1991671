package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"adprom/internal/collector"
)

// sampleEvents is a representative batch: an observe with labelled calls, a
// flush, a second tenant's traffic, and a close.
func sampleEvents() []Event {
	return []Event{
		{Kind: KindObserve, Tenant: "apph", Session: "s1", Trace: "c0ffee0123456789", Calls: []collector.Call{
			{Label: "mysql_query_Q3", Name: "mysql_query", Caller: "report", Block: 7},
			{Label: "printf", Name: "printf", Caller: "report", Block: 9},
		}},
		{Kind: KindFlush, Tenant: "apph", Session: "s1"},
		{Kind: KindObserve, Tenant: "appb", Session: "z9", Calls: []collector.Call{
			{Label: "curl_easy_perform", Name: "curl_easy_perform", Caller: "main", Block: 1},
		}},
		{Kind: KindClose, Tenant: "appb", Session: "z9"},
	}
}

// eventsEqual compares ignoring Calls slice identity/capacity.
func eventsEqual(got, want Event) bool {
	if got.Kind != want.Kind || got.Tenant != want.Tenant || got.Session != want.Session ||
		got.Trace != want.Trace {
		return false
	}
	if len(got.Calls) != len(want.Calls) {
		return false
	}
	for i := range got.Calls {
		if !reflect.DeepEqual(got.Calls[i], want.Calls[i]) {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	events := sampleEvents()
	var wire []byte
	for _, e := range events {
		var err error
		if wire, err = EncodeFrame(wire, e); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewFrameDecoder(bytes.NewReader(wire), 0)
	for i, want := range events {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !eventsEqual(got, want) {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// encodeFrameV2 writes the version-2 wire layout (no trace ID) so the
// back-compat test does not depend on the current encoder.
func encodeFrameV2(t *testing.T, e Event) []byte {
	t.Helper()
	var payload []byte
	app := func(s string) {
		payload = binary.BigEndian.AppendUint16(payload, uint16(len(s)))
		payload = append(payload, s...)
	}
	app(e.Tenant)
	app(e.Session)
	if e.Kind == KindObserve {
		payload = binary.BigEndian.AppendUint16(payload, uint16(len(e.Calls)))
		for _, c := range e.Calls {
			app(c.Label)
			app(c.Name)
			app(c.Caller)
			payload = binary.BigEndian.AppendUint32(payload, uint32(c.Block))
			app(c.SQL)
			payload = binary.BigEndian.AppendUint32(payload, uint32(c.Rows))
		}
	}
	var b []byte
	b = append(b, frameMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, 2)
	b = append(b, byte(e.Kind))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// TestFrameV2BackCompat holds the version promise: v2 streams from older
// collectors (no trace ID after the session) still decode, their events
// simply carrying no client trace.
func TestFrameV2BackCompat(t *testing.T) {
	var wire []byte
	for _, e := range sampleEvents() {
		wire = append(wire, encodeFrameV2(t, e)...)
	}
	dec := NewFrameDecoder(bytes.NewReader(wire), 0)
	for i, want := range sampleEvents() {
		want.Trace = "" // v2 cannot carry one
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("v2 event %d: %v", i, err)
		}
		if !eventsEqual(got, want) {
			t.Fatalf("v2 event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last v2 frame: %v, want io.EOF", err)
	}
}

// TestFrameDecoderInternsStrings holds the amortisation contract: the same
// tenant string on consecutive frames decodes to the same backing string.
func TestFrameDecoderInternsStrings(t *testing.T) {
	var wire []byte
	for i := 0; i < 2; i++ {
		var err error
		if wire, err = EncodeFrame(wire, Event{Kind: KindFlush, Tenant: "apph", Session: "s1"}); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewFrameDecoder(bytes.NewReader(wire), 0)
	a, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.Tenant) != unsafe.StringData(b.Tenant) {
		t.Error("tenant string was reallocated instead of interned")
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	valid, err := EncodeFrame(nil, sampleEvents()[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mut func(b []byte) []byte) []byte {
		b := append([]byte{}, valid...)
		return mut(b)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrFrameCorrupt},
		{"truncated header", valid[:7], ErrFrameCorrupt},
		{"truncated payload", valid[:len(valid)-3], ErrFrameCorrupt},
		{"payload bit flip", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }), ErrFrameCorrupt},
		{"checksum flip", corrupt(func(b []byte) []byte { b[12] ^= 0x01; return b }), ErrFrameCorrupt},
		{"future version", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[4:6], FrameVersion+1)
			return b
		}), ErrFrameIncompatible},
		{"version zero", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[4:6], 0)
			return b
		}), ErrFrameIncompatible},
		{"oversize declared length", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[7:11], uint32(DefaultMaxFrame+1))
			return b
		}), ErrFrameCorrupt},
		{"unknown kind", corrupt(func(b []byte) []byte { b[6] = 0x7F; return b }), ErrFrameCorrupt},
		{"empty stream mid-frame", valid[:1], ErrFrameCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewFrameDecoder(bytes.NewReader(tc.in), 0)
			_, err := dec.Next()
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}

	// Structural underruns inside a checksum-valid payload: rebuild frames
	// whose payload truncates mid-structure with a correct CRC.
	t.Run("payload underrun with valid checksum", func(t *testing.T) {
		full, err := EncodeFrame(nil, sampleEvents()[0])
		if err != nil {
			t.Fatal(err)
		}
		payload := full[frameHeaderLen:]
		for cut := 0; cut < len(payload); cut++ {
			b := reframe(payload[:cut], KindObserve)
			dec := NewFrameDecoder(bytes.NewReader(b), 0)
			if _, err := dec.Next(); err == nil {
				// Some prefixes happen to parse as a shorter valid structure
				// only if every declared length fits; a clean parse of a
				// strict prefix means trailing-byte detection failed.
				t.Fatalf("cut=%d: truncated payload decoded cleanly", cut)
			} else if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("cut=%d: %v, want ErrFrameCorrupt", cut, err)
			}
		}
	})

	t.Run("flush frame with trailing bytes", func(t *testing.T) {
		fl, err := EncodeFrame(nil, Event{Kind: KindFlush, Tenant: "t", Session: "s"})
		if err != nil {
			t.Fatal(err)
		}
		b := reframe(append(fl[frameHeaderLen:], 0xAB), KindFlush)
		dec := NewFrameDecoder(bytes.NewReader(b), 0)
		if _, err := dec.Next(); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("got %v, want ErrFrameCorrupt", err)
		}
	})
}

// reframe wraps an arbitrary payload in a well-formed v1 header (correct
// magic, length, CRC) of the given kind — for testing payload-structure
// validation in isolation from header validation.
func reframe(payload []byte, kind Kind) []byte {
	b := append([]byte{}, frameMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, FrameVersion)
	b = append(b, byte(kind))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// encodeFrameRef is the encoder EncodeFrame replaced, kept as the
// reference: it builds the payload in a slice of its own, then appends the
// header and a copy of the payload to dst.
func encodeFrameRef(dst []byte, e Event) ([]byte, error) {
	switch e.Kind {
	case KindObserve, KindFlush, KindClose:
	default:
		return dst, fmt.Errorf("ingest: encoding unknown kind %d", e.Kind)
	}
	var payload []byte
	payload, err := appendString(payload, e.Tenant)
	if err != nil {
		return dst, err
	}
	if payload, err = appendString(payload, e.Session); err != nil {
		return dst, err
	}
	if payload, err = appendString(payload, e.Trace); err != nil {
		return dst, err
	}
	if e.Kind == KindObserve {
		if len(e.Calls) > 0xFFFF {
			return dst, fmt.Errorf("ingest: batch of %d calls exceeds frame limit", len(e.Calls))
		}
		payload = binary.BigEndian.AppendUint16(payload, uint16(len(e.Calls)))
		for i := range e.Calls {
			c := &e.Calls[i]
			if payload, err = appendString(payload, c.Label); err != nil {
				return dst, err
			}
			if payload, err = appendString(payload, c.Name); err != nil {
				return dst, err
			}
			if payload, err = appendString(payload, c.Caller); err != nil {
				return dst, err
			}
			payload = binary.BigEndian.AppendUint32(payload, uint32(c.Block))
			if payload, err = appendString(payload, c.SQL); err != nil {
				return dst, err
			}
			payload = binary.BigEndian.AppendUint32(payload, uint32(c.Rows))
		}
	}
	dst = append(dst, frameMagic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, FrameVersion)
	dst = append(dst, byte(e.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...), nil
}

// TestEncodeFrameMatchesReference holds EncodeFrame to the reference
// encoder byte for byte, behind prefixes that must survive.
func TestEncodeFrameMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	events := append(sampleEvents(), ndjsonBenchEvents()...)
	for i := 0; i < 5000; i++ {
		events = append(events, randEvent(rng, false))
	}
	for i, e := range events {
		for _, prefix := range [][]byte{nil, []byte("prev"), append(make([]byte, 0, 1<<10), "prev"...)} {
			want, err := encodeFrameRef(bytes.Clone(prefix), e)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeFrame(bytes.Clone(prefix), e)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("event %d %+v after %q:\n got %q, %v\nwant %q", i, e, prefix, got, err, want)
			}
		}
	}
}

// TestEncodeFrameAllocFree pins the collector-side encoder: with room in
// dst, encoding a frame allocates nothing.
func TestEncodeFrameAllocFree(t *testing.T) {
	events := append(ndjsonBenchEvents(), sampleEvents()...)
	dst := make([]byte, 0, 1<<16)
	encode := func() {
		dst = dst[:0]
		for _, e := range events {
			var err error
			if dst, err = EncodeFrame(dst, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Errorf("encoding %d frames into a pre-grown dst allocates %v times, want 0", len(events), allocs)
	}
}

// TestEncodeFrameLimits: what the uint16 length prefixes cannot carry, and
// an unknown kind, are refused, and dst comes back at its original length.
func TestEncodeFrameLimits(t *testing.T) {
	long := strings.Repeat("x", 0x10000)
	for _, e := range []Event{
		{Kind: 99, Tenant: "t", Session: "s"},
		{Kind: KindFlush, Tenant: long, Session: "s"},
		{Kind: KindClose, Tenant: "t", Session: long},
		{Kind: KindFlush, Tenant: "t", Session: "s", Trace: long},
		{Kind: KindObserve, Tenant: "t", Session: "s", Calls: make([]collector.Call, 0x10000)},
		{Kind: KindObserve, Tenant: "t", Session: "s", Calls: []collector.Call{{Label: "a"}, {Name: "b", SQL: long}}},
	} {
		for _, prefix := range [][]byte{nil, []byte("prev"), append(make([]byte, 0, 1<<10), "prev"...)} {
			got, err := EncodeFrame(bytes.Clone(prefix), e)
			if err == nil || !bytes.Equal(got, prefix) {
				t.Errorf("kind %v, %d calls, after %q: got %d bytes, %v; want the prefix back and an error",
					e.Kind, len(e.Calls), prefix, len(got), err)
			}
		}
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	events := sampleEvents()
	var wire []byte
	for _, e := range events {
		var err error
		if wire, err = EncodeNDJSON(wire, e); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewNDJSONDecoder(bytes.NewReader(wire), 0)
	for i, want := range events {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !eventsEqual(got, want) {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last line: %v, want io.EOF", err)
	}
}

func TestNDJSONDefaultsAndErrors(t *testing.T) {
	in := `{"tenant":"a","session":"s","calls":[{"name":"printf"}]}

{"tenant":"a","session":"s","op":"flush"}
`
	dec := NewNDJSONDecoder(strings.NewReader(in), 0)
	e, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if e.Calls[0].Label != "printf" {
		t.Errorf("label not defaulted to name: %q", e.Calls[0].Label)
	}
	if e, err = dec.Next(); err != nil || e.Kind != KindFlush {
		t.Fatalf("blank line not skipped: %+v, %v", e, err)
	}

	for _, bad := range []string{
		`{"tenant":"a","session":"s","op":"explode"}`,
		`{not json}`,
	} {
		dec := NewNDJSONDecoder(strings.NewReader(bad+"\n"), 0)
		if _, err := dec.Next(); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%s: got %v, want ErrFrameCorrupt", bad, err)
		}
	}
}

// FuzzDecodeFrame holds the binary decoder to its contract on arbitrary
// bytes: it never panics, and every failure is a typed ErrFrameCorrupt /
// ErrFrameIncompatible (io.EOF only at a clean frame boundary).
func FuzzDecodeFrame(f *testing.F) {
	for _, e := range sampleEvents() {
		b, err := EncodeFrame(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	two, _ := EncodeFrame(nil, sampleEvents()[0])
	two, _ = EncodeFrame(two, sampleEvents()[1])
	f.Add(two)
	f.Add([]byte{})
	f.Add([]byte("ADIN"))
	f.Add([]byte("{\"tenant\":\"a\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewFrameDecoder(bytes.NewReader(data), 1<<16)
		for i := 0; i < 1000; i++ {
			_, err := dec.Next()
			if err == nil {
				continue
			}
			if err == io.EOF || errors.Is(err, ErrFrameCorrupt) || errors.Is(err, ErrFrameIncompatible) {
				return
			}
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}

// BenchmarkIngestDecode measures steady-state binary decode of a busy
// connection's traffic: after the first pass has populated the intern table
// and scratch buffers, decoding must not allocate per frame.
func BenchmarkIngestDecode(b *testing.B) {
	calls := make([]collector.Call, 64)
	for i := range calls {
		calls[i] = collector.Call{
			Label: "mysql_query_Q3", Name: "mysql_query", Caller: "report", Block: i % 8,
		}
	}
	var wire []byte
	var err error
	if wire, err = EncodeFrame(wire, Event{Kind: KindObserve, Tenant: "apph", Session: "s1", Calls: calls}); err != nil {
		b.Fatal(err)
	}
	if wire, err = EncodeFrame(wire, Event{Kind: KindFlush, Tenant: "apph", Session: "s1"}); err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(wire)
	dec := NewFrameDecoder(rd, 0)
	var events, decoded int
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(wire)
		for {
			e, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			events++
			decoded += len(e.Calls)
		}
	}
	b.StopTimer()
	if events == 0 || decoded == 0 {
		b.Fatal("decoded nothing")
	}
}

// ndjsonBenchEvents is a chatty collector's traffic: one call per observe
// line, as a collector streams calls while the program runs, then a flush.
// No SQL text or trace IDs, so steady-state decoding allocates nothing.
func ndjsonBenchEvents() []Event {
	events := make([]Event, 0, 65)
	for i := 0; i < 64; i++ {
		events = append(events, Event{Kind: KindObserve, Tenant: "apph", Session: "s1", Calls: []collector.Call{
			{Label: "mysql_query_Q3", Name: "mysql_query", Caller: "report", Block: i % 8},
		}})
	}
	return append(events, Event{Kind: KindFlush, Tenant: "apph", Session: "s1"})
}

// loopReader replays one buffer forever, so a decoder over it never reaches
// EOF and a benchmark can reuse one decoder across iterations.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// BenchmarkIngestDecodeNDJSON measures steady-state NDJSON decode of the
// same 64 calls as BenchmarkIngestDecode, sent one call per line: after the
// first pass has populated the intern table and scratch buffers, decoding
// must not allocate per line.
func BenchmarkIngestDecodeNDJSON(b *testing.B) {
	events := ndjsonBenchEvents()
	var wire []byte
	var err error
	for _, e := range events {
		if wire, err = EncodeNDJSON(wire, e); err != nil {
			b.Fatal(err)
		}
	}
	dec := NewNDJSONDecoder(&loopReader{b: wire}, 0)
	var decoded int
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for range events {
			e, err := dec.Next()
			if err != nil {
				b.Fatal(err)
			}
			decoded += len(e.Calls)
		}
	}
	b.StopTimer()
	if decoded == 0 {
		b.Fatal("decoded nothing")
	}
}

// BenchmarkIngestEncode measures the collector side of the binary codec on
// the chatty traffic of BenchmarkIngestEncodeNDJSON: 64 one-call frames and
// a flush, appended into a reused buffer.
func BenchmarkIngestEncode(b *testing.B) {
	events := ndjsonBenchEvents()
	var wire []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = wire[:0]
		for _, e := range events {
			if wire, err = EncodeFrame(wire, e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.SetBytes(int64(len(wire)))
}

// BenchmarkIngestEncodeNDJSON measures the collector side of the same
// traffic: appending the 65 lines into a reused buffer.
func BenchmarkIngestEncodeNDJSON(b *testing.B) {
	events := ndjsonBenchEvents()
	var wire []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire = wire[:0]
		for _, e := range events {
			if wire, err = EncodeNDJSON(wire, e); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.SetBytes(int64(len(wire)))
}
