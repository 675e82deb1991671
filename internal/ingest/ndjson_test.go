package ingest

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"adprom/internal/collector"
)

// newLineDecoder is a fresh decoder for line-level tests; its stream is
// never read.
func newLineDecoder() *NDJSONDecoder {
	return NewNDJSONDecoder(bytes.NewReader(nil), 0)
}

// FuzzDecodeNDJSON holds the NDJSON decoder to the reference: for any line,
// the decoder and encoding/json followed by toEvent either both fail with
// ErrFrameCorrupt or return identical events. Lines inside the scanner's
// subset test the scanner; the rest test that the fallback is reached.
func FuzzDecodeNDJSON(f *testing.F) {
	for _, e := range sampleEvents() {
		line, err := EncodeNDJSON(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
	}
	for _, seed := range []string{
		// Escapes the scanner decodes, and \u forms it leaves to the reference.
		`{"tenant":"a\"b\\c\/d\b\f\n\r\t","session":"\u0041\u00e9\u2028\uFFFE","calls":[{"name":"x\u003cy\u0026","sql":"a\u003e\u0000"}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"\ud83d\ude00"}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"\ud800x"}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"\u12"}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"\x"}]}`,
		// Unknown, mixed-case, folded and duplicate keys.
		`{"tenant":"a","session":"s","extra":{"nested":[1,2]}}`,
		`{"Tenant":"a","SESSION":"s","calls":[{"Name":"x"}]}`,
		`{"tenant":"a","ſession":"s"}`,
		`{"t\u0065nant":"a","session":"s"}`,
		`{"tenant":"a","tenant":"b","session":"s"}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x","name":"y"}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x","block":2}],"calls":[{"label":"y"}]}`,
		// null in every position.
		`null`,
		`{"tenant":null,"session":"s"}`,
		`{"tenant":"a","session":"s","calls":null}`,
		`{"tenant":"a","session":"s","calls":[null]}`,
		// Numbers: floats, exponents, leading zeros, signs, overflow.
		`{"tenant":"a","session":"s","calls":[{"name":"x","block":1.5}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x","block":1e3,"rows":2E0}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x","block":007}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x","block":-0,"rows":-12}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x","block":999999999999999999,"rows":9223372036854775808}]}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x","block":"7"}]}`,
		// Non-ASCII and invalid UTF-8.
		`{"tenant":"é","session":"日本"}`,
		"{\"tenant\":\"\xff\",\"session\":\"\xc3\"}",
		"{\"tenant\":\"a\",\"session\":\"s\"}\xef\xbb\xbf",
		// Ops, whitespace, and structure.
		`{"tenant":"a","session":"s","op":"explode"}`,
		`{"tenant":"a","session":"s","op":"FLUSH"}`,
		`{"tenant":"a","session":"s","op":"close","calls":[{"name":"x"}]}`,
		`{"tenant":"a","session":"s","op":"observe","calls":[]}`,
		" \t{ \"tenant\" : \"a\" ,\r\n\"session\":\"s\" , \"calls\" : [ { } ] } ",
		`{}`,
		``,
		`[]`,
		`"tenant"`,
		`{"tenant":"a","session":"s"} x`,
		`{"tenant":"a","session":"s"}{}`,
		`{"tenant":"a","session":"s",}`,
		`{"tenant":"a","session":"s","calls":[{"name":"x"},]}`,
		`{"tenant":"a"`,
		`{"tenant":"a","session":"s","calls":[{"name":"x"}`,
		`{"tenant":true,"session":"s"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := newLineDecoder().decodeLine(line)
		want, wantErr := newLineDecoder().decodeJSON(line)
		if gotErr != nil || wantErr != nil {
			if !errors.Is(gotErr, ErrFrameCorrupt) || !errors.Is(wantErr, ErrFrameCorrupt) {
				t.Fatalf("%q: decoder error %v, reference error %v", line, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoder %+v, reference %+v", line, got, want)
		}
	})
}

// wireStrings are string pieces that exercise every escaping rule of
// json.Marshal: quotes and backslashes, the HTML-sensitive <>&, control
// characters named and unnamed, DEL, non-ASCII, the JavaScript line
// separators, and invalid UTF-8.
var wireStrings = []string{
	"", "a", "Z9", "mysql_query", " ", "/", "'", `"`, `\`, "<", ">", "&",
	"\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"é", "日本", "\u2028", "\u2029", "\ufffd", "\xff", "\xc3", "\xed\xa0\x80",
	"SELECT * FROM t WHERE a < 5 AND b > 'x' & c",
}

func randWireString(rng *rand.Rand, ascii bool) string {
	var b strings.Builder
	for n := rng.IntN(4); n > 0; n-- {
		p := wireStrings[rng.IntN(len(wireStrings))]
		if ascii && !isASCII(p) {
			continue
		}
		b.WriteString(p)
	}
	return b.String()
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func randInt(rng *rand.Rand) int {
	switch rng.IntN(4) {
	case 0:
		return 0
	case 1:
		return rng.IntN(100)
	case 2:
		return -rng.IntN(1 << 20)
	default:
		return int(rng.Uint64()) // any width, either sign
	}
}

// randEvent draws an event over wireStrings; ascii keeps every string in
// the encoder's and scanner's ASCII subset.
func randEvent(rng *rand.Rand, ascii bool) Event {
	e := Event{
		Kind:    []Kind{KindObserve, KindFlush, KindClose}[rng.IntN(3)],
		Tenant:  randWireString(rng, ascii),
		Session: randWireString(rng, ascii),
	}
	if rng.IntN(2) == 0 {
		e.Trace = randWireString(rng, ascii)
	}
	for n := rng.IntN(4); n > 0; n-- {
		c := collector.Call{
			Name:   randWireString(rng, ascii),
			Caller: randWireString(rng, ascii),
			Block:  randInt(rng),
			Rows:   randInt(rng),
		}
		switch rng.IntN(3) {
		case 0:
			c.Label = c.Name
		case 1:
			c.Label = randWireString(rng, ascii)
		}
		if rng.IntN(2) == 0 {
			c.SQL = randWireString(rng, ascii)
		}
		e.Calls = append(e.Calls, c)
	}
	return e
}

// TestEncodeNDJSONMatchesMarshal holds the encoder to json.Marshal of the
// wire schema, byte for byte, over events whose strings need every kind of
// escaping; and checks that the direct path, not the fallback, encodes every
// ASCII event.
func TestEncodeNDJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 20000; i++ {
		e := randEvent(rng, i%2 == 0)
		want, err := marshalNDJSON(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prev\n")
		got, err := EncodeNDJSON(prefix, e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prev\n" {
			t.Fatalf("event %+v:\n got %q\nwant %q", e, got[len(prefix):], want)
		}
		if i%2 == 0 {
			if direct, ok := appendEvent(nil, e); !ok || !bytes.Equal(append(direct, '\n'), want) {
				t.Fatalf("ASCII event %+v left the direct path (ok=%v)", e, ok)
			}
		}
	}
}

// TestScanLineCoversEncoderOutput checks that what the encoder writes for
// ASCII events is inside the scanner's subset, so a collector using
// EncodeNDJSON never pays for the reflective decoder.
func TestScanLineCoversEncoderOutput(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	events := sampleEvents()
	for i := 0; i < 5000; i++ {
		events = append(events, randEvent(rng, true))
	}
	for _, e := range events {
		line, err := EncodeNDJSON(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := newLineDecoder().scanLine(line)
		if !ok {
			t.Fatalf("scanner declined encoder output %q", line)
		}
		want, err := newLineDecoder().decodeJSON(line)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: scanner %+v, reference %+v", line, got, want)
		}
	}
}
