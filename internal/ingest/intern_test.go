package ingest

import (
	"bytes"
	"fmt"
	"testing"

	"adprom/internal/collector"
)

// TestInternTableBounded streams 100k events, each on a fresh session with
// a fresh label as a collector opening one session per program run would,
// through both decoders: the intern table must stay within maxIntern while
// every event still decodes unchanged.
func TestInternTableBounded(t *testing.T) {
	const n = 100_000
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Kind: KindObserve, Tenant: "apph", Session: fmt.Sprintf("run-%d", i), Calls: []collector.Call{
			{Label: fmt.Sprintf("mysql_query_Q%d", i), Name: "mysql_query", Caller: "report", Block: i % 8},
		}}
	}
	for _, codec := range []struct {
		name   string
		encode func([]byte, Event) ([]byte, error)
		decode func([]byte) (decoder, func() int) // and the table's size
	}{
		{"binary", EncodeFrame, func(b []byte) (decoder, func() int) {
			d := NewFrameDecoder(bytes.NewReader(b), 0)
			return d, func() int { return len(d.intern) }
		}},
		{"ndjson", EncodeNDJSON, func(b []byte) (decoder, func() int) {
			d := NewNDJSONDecoder(bytes.NewReader(b), 0)
			return d, func() int { return len(d.intern) }
		}},
	} {
		t.Run(codec.name, func(t *testing.T) {
			var wire []byte
			var err error
			for _, e := range events {
				if wire, err = codec.encode(wire, e); err != nil {
					t.Fatal(err)
				}
			}
			dec, tableLen := codec.decode(wire)
			for i, want := range events {
				got, err := dec.Next()
				if err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
				if !eventsEqual(got, want) {
					t.Fatalf("event %d: got %+v, want %+v", i, got, want)
				}
				if n := tableLen(); n > maxIntern {
					t.Fatalf("event %d: intern table holds %d strings, cap %d", i, n, maxIntern)
				}
			}
		})
	}
}
