package trace

import (
	"encoding/binary"
	"math"
)

// A retained trace is one byte slice, written once at commit and decoded on
// read:
//
//	trace   = literal(ID) str(Tenant) str(Session) uvarint(flags)
//	          varint(Dropped) uvarint(len(Spans)) uvarint(attribute count) span*
//	span    = uvarint(ID) uvarint(Parent) str(Stage)
//	          varint(Start − previous span's Start) varint(Duration)
//	          uvarint(len(Attrs)) attr*
//	attr    = str(Key) byte(Kind) value
//	value   = varint(Int) for KindInt and KindBool, the 8 little-endian IEEE
//	          bytes of Float for KindFloat, str(Str) otherwise
//	str     = uvarint(i) naming vocab[i], or uvarint(len(vocab)+n) and n bytes
//	literal = uvarint(n) and n bytes
//
// flags bit 0 is Alert; varint is zigzag. The ID leads, so a lookup by ID
// reads nothing else. Stage names, attribute keys and the fixed attribute
// values the pipeline records are each one byte; any other string is
// written out, so the vocabulary saves space but never limits what a trace
// holds. Start is written as a delta, since one op's spans start
// microseconds apart.

// vocab is the span vocabulary: stage names, attribute keys, and the fixed
// string values that runtime, tenant and ingest record. A word's index is
// its encoding; no encoding leaves the process, so the list may change.
var vocab = [...]string{
	// Stages.
	"ingest", "observe", "flush", "close", "route", "admit", "score",
	"score.hmm", "score.sql", "fusion", "sink",
	// Attribute keys ("score" above is one too).
	"remote", "codec", "tenant", "resident_shards", "queue_depth", "worker",
	"policy", "verdict", "shed_calls", "calls", "windows", "alerts", "scorer",
	"generation", "hmm_score", "hmm_threshold", "score_error_bound",
	"sql_score", "sql_threshold", "seq", "threshold", "margin", "flagged",
	"fused_score", "hmm_margin", "sql_margin", "escalated", "cause", "flag",
	// Values.
	"ndjson", "binary", "block", "shed-by-risk", "admitted", "shed",
	"partial", "rejected", "exact", "delivered", "panicked", "buffer full",
	"Normal", "Anomalous", "DL", "OutOfContext",
}

var vocabIndex = func() map[string]uint64 {
	m := make(map[string]uint64, len(vocab))
	for i, w := range vocab {
		m[w] = uint64(i)
	}
	return m
}()

// encode appends the trace's encoding to dst. The caller holds the last
// reference, so no lock is needed.
func (a *Active) encode(dst []byte) []byte {
	if a.tr.ID != "" {
		return encode(dst, &a.tr)
	}
	// A store-assigned ID nobody read: write its hex form in place.
	return appendBody(appendHexID(append(dst, 16), a.num), &a.tr)
}

// encode appends t's encoding to dst.
func encode(dst []byte, t *Trace) []byte {
	return appendBody(appendLiteral(dst, t.ID), t)
}

// appendBody appends everything after the ID.
func appendBody(dst []byte, t *Trace) []byte {
	dst = appendStr(dst, t.Tenant)
	dst = appendStr(dst, t.Session)
	var flags uint64
	if t.Alert {
		flags = 1
	}
	dst = binary.AppendUvarint(dst, flags)
	dst = binary.AppendVarint(dst, int64(t.Dropped))
	nattrs := 0
	for i := range t.Spans {
		nattrs += len(t.Spans[i].Attrs)
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Spans)))
	dst = binary.AppendUvarint(dst, uint64(nattrs))
	var prev int64
	for i := range t.Spans {
		sp := &t.Spans[i]
		dst = binary.AppendUvarint(dst, sp.ID)
		dst = binary.AppendUvarint(dst, sp.Parent)
		dst = appendStr(dst, sp.Stage)
		dst = binary.AppendVarint(dst, sp.Start-prev)
		prev = sp.Start
		dst = binary.AppendVarint(dst, sp.Duration)
		dst = binary.AppendUvarint(dst, uint64(len(sp.Attrs)))
		for j := range sp.Attrs {
			at := &sp.Attrs[j]
			dst = appendStr(dst, at.Key)
			dst = append(dst, byte(at.Kind))
			switch at.Kind {
			case KindInt, KindBool:
				dst = binary.AppendVarint(dst, at.Int)
			case KindFloat:
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(at.Float))
			default:
				dst = appendStr(dst, at.Str)
			}
		}
	}
	return dst
}

func appendLiteral(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendStr(dst []byte, s string) []byte {
	if i, ok := vocabIndex[s]; ok {
		return binary.AppendUvarint(dst, i)
	}
	return append(binary.AppendUvarint(dst, uint64(len(vocab)+len(s))), s...)
}

// encodedIDIs reports whether the encoded trace b has the given ID.
func encodedIDIs(b []byte, id string) bool {
	n, k := binary.Uvarint(b)
	return n == uint64(len(id)) && string(b[k:k+len(id)]) == id
}

// decode rebuilds the Trace that b encodes: one allocation for the spans,
// one for all their attributes, and one per string outside the vocabulary.
func decode(b []byte) Trace {
	d := decoder{b: b}
	t := Trace{ID: d.literal(), Tenant: d.str(), Session: d.str()}
	t.Alert = d.uvarint()&1 != 0
	t.Dropped = int(d.varint())
	nspans, nattrs := d.uvarint(), d.uvarint()
	if nspans == 0 {
		return t
	}
	t.Spans = make([]Span, nspans)
	attrs := make([]Attr, nattrs)
	var prev int64
	for i := range t.Spans {
		sp := &t.Spans[i]
		sp.ID, sp.Parent, sp.Stage = d.uvarint(), d.uvarint(), d.str()
		sp.Start = prev + d.varint()
		prev = sp.Start
		sp.Duration = d.varint()
		n := int(d.uvarint())
		if n == 0 {
			continue
		}
		sp.Attrs, attrs = attrs[:n:n], attrs[n:]
		for j := range sp.Attrs {
			at := &sp.Attrs[j]
			at.Key = d.str()
			at.Kind = Kind(d.b[0])
			d.b = d.b[1:]
			switch at.Kind {
			case KindInt, KindBool:
				at.Int = d.varint()
			case KindFloat:
				at.Float = math.Float64frombits(binary.LittleEndian.Uint64(d.b))
				d.b = d.b[8:]
			default:
				at.Str = d.str()
			}
		}
	}
	return t
}

// decoder reads what appendBody wrote; the bytes never leave the process,
// so it trusts them.
type decoder struct{ b []byte }

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	d.b = d.b[n:]
	return v
}

func (d *decoder) literal() string { return d.take(d.uvarint()) }

func (d *decoder) str() string {
	i := d.uvarint()
	if i < uint64(len(vocab)) {
		return vocab[i]
	}
	return d.take(i - uint64(len(vocab)))
}

func (d *decoder) take(n uint64) string {
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
