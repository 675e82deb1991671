// Package ingest is the network front door of the fleet server: it accepts
// remote call events over TCP, decodes them from NDJSON or a
// length-prefixed binary frame format, and demultiplexes them by tenant id
// into the tenant router.
//
// # Binary frame format (v3)
//
// Mirroring the profile codec's header discipline (magic / version / length
// / CRC-32), each event batch travels as one self-delimiting frame:
//
//	magic   [4]byte  "ADIN"
//	version uint16   big-endian, currently 3
//	kind    uint8    1=observe, 2=flush, 3=close-session
//	length  uint32   big-endian payload byte count
//	crc     uint32   big-endian IEEE CRC-32 of the payload
//	payload []byte:
//	    tenant  uint16-length-prefixed UTF-8 bytes
//	    session uint16-length-prefixed UTF-8 bytes
//	    (v3 and later)
//	    trace   uint16-length-prefixed UTF-8 bytes (may be empty)
//	    (observe only)
//	    count   uint16 number of calls, then per call:
//	        label, name, caller  uint16-length-prefixed bytes each
//	        block                uint32 big-endian
//	        (v2 and later)
//	        sql                  uint16-length-prefixed bytes
//	        rows                 uint32 big-endian
//
// Version 2 extends each call with the executed query's wire text and result
// row count, feeding the SQL-behaviour detection channel. Version 3 adds an
// optional client-supplied trace ID after the session, so a collector can
// correlate its own telemetry with the server-side decision trace. The
// decoder still reads v1 and v2 streams from older collectors — their calls
// simply carry no query data (v1) and their traces get server-assigned IDs.
//
// Malformed input — bad magic, truncated headers or payloads, checksum
// mismatches, over-limit lengths, payloads that underrun their declared
// structure — fails with an error wrapping ErrFrameCorrupt; a newer frame
// version fails with ErrFrameIncompatible. The decoder never panics on
// arbitrary bytes (FuzzDecodeFrame holds it to that).
//
// # Backpressure
//
// Connections feed the sink synchronously: while the router's shard queues
// are full, the reader goroutine blocks and the kernel's TCP window closes
// toward the remote collector — per-connection backpressure for free. Under
// risk-aware shedding the sink returns shed errors instead; the server
// counts them per connection and keeps reading, so the degradation curve
// composes with the runtime's risk-aware admission.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"adprom/internal/collector"
)

// Kind discriminates what a frame (or NDJSON event) asks of the sink.
type Kind uint8

const (
	// KindObserve carries a batch of calls for one (tenant, session).
	KindObserve Kind = 1
	// KindFlush asks the session to judge its pending short window and
	// reset for the next trace.
	KindFlush Kind = 2
	// KindClose flushes and deregisters the session, releasing its quota
	// slot.
	KindClose Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindObserve:
		return "observe"
	case KindFlush:
		return "flush"
	case KindClose:
		return "close"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Frame codec constants; FrameVersion is what EncodeFrame writes today (the
// decoder also reads version 1, which lacks the per-call sql/rows fields,
// and version 2, which lacks the trace ID).
const (
	FrameVersion = 3

	frameHeaderLen = 4 + 2 + 1 + 4 + 4

	// DefaultMaxFrame bounds a frame's declared payload so a corrupt or
	// hostile header cannot make the decoder allocate gigabytes.
	DefaultMaxFrame = 1 << 20
)

var frameMagic = [4]byte{'A', 'D', 'I', 'N'}

// Typed decode failures; match with errors.Is.
var (
	// ErrFrameCorrupt reports a frame that is truncated, bit-flipped
	// (checksum mismatch), structurally short, or over the size limit.
	ErrFrameCorrupt = errors.New("ingest: corrupt frame")
	// ErrFrameIncompatible reports a well-formed frame written by a newer
	// format version than this build understands.
	ErrFrameIncompatible = errors.New("ingest: incompatible frame version")
)

// Event is one decoded ingest operation, the unit both codecs produce.
type Event struct {
	Kind    Kind
	Tenant  string
	Session string
	// Trace is the client-supplied trace ID ("" = none; the server assigns
	// one when tracing is enabled).
	Trace string
	// Calls is populated for KindObserve. Decoders reuse the backing array
	// across events: the sink must not retain it past the delivery call
	// (runtime.Session.ObserveBatch copies, so the standard path is safe).
	Calls []collector.Call
}

// EncodeFrame appends the FrameVersion binary encoding of e to dst and
// returns the extended slice. The payload is written straight into dst
// behind a header whose length and CRC are filled in last, so a dst with
// room to spare is extended without allocating. Strings longer than 64 KiB
// and batches over 65535 calls are refused (the uint16 length prefixes
// cannot carry them); on an error dst comes back at its original length.
func EncodeFrame(dst []byte, e Event) ([]byte, error) {
	switch e.Kind {
	case KindObserve, KindFlush, KindClose:
	default:
		return dst, fmt.Errorf("ingest: encoding unknown kind %d", e.Kind)
	}
	start := len(dst)
	dst = append(dst, frameMagic[:]...)
	dst = binary.BigEndian.AppendUint16(dst, FrameVersion)
	dst = append(dst, byte(e.Kind))
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length and CRC, set below
	body := len(dst)
	dst, err := appendPayload(dst, e)
	if err != nil {
		return dst[:start], err
	}
	payload := dst[body:]
	binary.BigEndian.PutUint32(dst[body-8:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[body-4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// appendPayload appends the payload of e's frame to payload.
func appendPayload(payload []byte, e Event) ([]byte, error) {
	payload, err := appendString(payload, e.Tenant)
	if err != nil {
		return payload, err
	}
	if payload, err = appendString(payload, e.Session); err != nil {
		return payload, err
	}
	if payload, err = appendString(payload, e.Trace); err != nil {
		return payload, err
	}
	if e.Kind != KindObserve {
		return payload, nil
	}
	if len(e.Calls) > 0xFFFF {
		return payload, fmt.Errorf("ingest: batch of %d calls exceeds frame limit", len(e.Calls))
	}
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(e.Calls)))
	for i := range e.Calls {
		c := &e.Calls[i]
		if payload, err = appendString(payload, c.Label); err != nil {
			return payload, err
		}
		if payload, err = appendString(payload, c.Name); err != nil {
			return payload, err
		}
		if payload, err = appendString(payload, c.Caller); err != nil {
			return payload, err
		}
		payload = binary.BigEndian.AppendUint32(payload, uint32(c.Block))
		if payload, err = appendString(payload, c.SQL); err != nil {
			return payload, err
		}
		payload = binary.BigEndian.AppendUint32(payload, uint32(c.Rows))
	}
	return payload, nil
}

func appendString(dst []byte, s string) ([]byte, error) {
	if len(s) > 0xFFFF {
		return dst, fmt.Errorf("ingest: string of %d bytes exceeds frame limit", len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// WriteFrame encodes e and writes it to w — the collector-side sender.
func WriteFrame(w io.Writer, e Event) error {
	buf, err := EncodeFrame(nil, e)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// FrameDecoder reads consecutive binary frames from a stream, amortising
// its buffers: the payload scratch, the decoded Calls slice, and an intern
// table for the small recurring string vocabulary (tenant ids, session ids,
// call labels, capped at maxIntern entries) are reused across frames, so
// steady-state decoding of a busy connection allocates only on first sight
// of a new string. Not safe for concurrent use; each connection owns one.
type FrameDecoder struct {
	r        *bufio.Reader
	maxFrame int

	payload []byte
	calls   []collector.Call
	intern  interner
	hdr     [frameHeaderLen]byte
}

// NewFrameDecoder wraps r. maxFrame bounds the accepted payload size
// (DefaultMaxFrame when <= 0).
func NewFrameDecoder(r io.Reader, maxFrame int) *FrameDecoder {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameDecoder{r: br, maxFrame: maxFrame, intern: make(interner)}
}

// Next decodes the next frame. A clean end of stream between frames returns
// io.EOF; a stream ending mid-frame, or any malformed frame, returns an
// error wrapping ErrFrameCorrupt (the connection cannot be resynchronised
// and must be dropped). The returned Event's strings are valid
// indefinitely; its Calls slice only until the following Next.
func (d *FrameDecoder) Next() (Event, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:1]); err != nil {
		if err == io.EOF {
			return Event{}, io.EOF
		}
		return Event{}, fmt.Errorf("%w: reading header: %v", ErrFrameCorrupt, err)
	}
	if _, err := io.ReadFull(d.r, d.hdr[1:]); err != nil {
		return Event{}, fmt.Errorf("%w: truncated header: %v", ErrFrameCorrupt, err)
	}
	if [4]byte(d.hdr[:4]) != frameMagic {
		return Event{}, fmt.Errorf("%w: bad magic %q", ErrFrameCorrupt, d.hdr[:4])
	}
	version := binary.BigEndian.Uint16(d.hdr[4:6])
	if version == 0 || version > FrameVersion {
		return Event{}, fmt.Errorf("%w: version %d (this build reads <= %d)",
			ErrFrameIncompatible, version, FrameVersion)
	}
	kind := Kind(d.hdr[6])
	length := int(binary.BigEndian.Uint32(d.hdr[7:11]))
	sum := binary.BigEndian.Uint32(d.hdr[11:15])
	if length > d.maxFrame {
		return Event{}, fmt.Errorf("%w: declared payload of %d bytes exceeds limit %d",
			ErrFrameCorrupt, length, d.maxFrame)
	}
	if cap(d.payload) < length {
		d.payload = make([]byte, length)
	}
	payload := d.payload[:length]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		return Event{}, fmt.Errorf("%w: truncated payload: %v", ErrFrameCorrupt, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return Event{}, fmt.Errorf("%w: checksum mismatch: %08x, header says %08x",
			ErrFrameCorrupt, got, sum)
	}
	return d.decodePayload(version, kind, payload)
}

// decodePayload parses one verified payload into an Event. version selects
// the layout: v1 calls end at the block id, v2 calls append the executed
// query and its row count, v3 payloads carry a trace ID after the session.
func (d *FrameDecoder) decodePayload(version uint16, kind Kind, p []byte) (Event, error) {
	e := Event{Kind: kind}
	var err error
	if e.Tenant, p, err = d.takeString(p); err != nil {
		return Event{}, fmt.Errorf("%w: tenant: %v", ErrFrameCorrupt, err)
	}
	if e.Session, p, err = d.takeString(p); err != nil {
		return Event{}, fmt.Errorf("%w: session: %v", ErrFrameCorrupt, err)
	}
	if version >= 3 {
		// Trace IDs are unique per op: copy rather than intern.
		var tb []byte
		if tb, p, err = takeBytes(p); err != nil {
			return Event{}, fmt.Errorf("%w: trace: %v", ErrFrameCorrupt, err)
		}
		if len(tb) > 0 {
			e.Trace = string(tb)
		}
	}
	switch kind {
	case KindFlush, KindClose:
		if len(p) != 0 {
			return Event{}, fmt.Errorf("%w: %d trailing payload bytes on %s frame",
				ErrFrameCorrupt, len(p), kind)
		}
		return e, nil
	case KindObserve:
	default:
		return Event{}, fmt.Errorf("%w: unknown frame kind %d", ErrFrameCorrupt, uint8(kind))
	}
	if len(p) < 2 {
		return Event{}, fmt.Errorf("%w: truncated call count", ErrFrameCorrupt)
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if cap(d.calls) < n {
		d.calls = make([]collector.Call, n)
	}
	calls := d.calls[:n]
	for i := 0; i < n; i++ {
		c := &calls[i]
		*c = collector.Call{}
		if c.Label, p, err = d.takeString(p); err != nil {
			return Event{}, fmt.Errorf("%w: call %d label: %v", ErrFrameCorrupt, i, err)
		}
		if c.Name, p, err = d.takeString(p); err != nil {
			return Event{}, fmt.Errorf("%w: call %d name: %v", ErrFrameCorrupt, i, err)
		}
		if c.Caller, p, err = d.takeString(p); err != nil {
			return Event{}, fmt.Errorf("%w: call %d caller: %v", ErrFrameCorrupt, i, err)
		}
		if len(p) < 4 {
			return Event{}, fmt.Errorf("%w: call %d truncated block", ErrFrameCorrupt, i)
		}
		c.Block = int(int32(binary.BigEndian.Uint32(p)))
		p = p[4:]
		if version >= 2 {
			// SQL text is not interned: literals make most queries distinct,
			// so the table would only grow. takeString's intern map is for
			// the recurring label vocabulary; copy the query bytes directly.
			var sql []byte
			if sql, p, err = takeBytes(p); err != nil {
				return Event{}, fmt.Errorf("%w: call %d sql: %v", ErrFrameCorrupt, i, err)
			}
			if len(sql) > 0 {
				c.SQL = string(sql)
			}
			if len(p) < 4 {
				return Event{}, fmt.Errorf("%w: call %d truncated rows", ErrFrameCorrupt, i)
			}
			c.Rows = int(int32(binary.BigEndian.Uint32(p)))
			p = p[4:]
		}
	}
	if len(p) != 0 {
		return Event{}, fmt.Errorf("%w: %d trailing payload bytes after %d calls",
			ErrFrameCorrupt, len(p), n)
	}
	e.Calls = calls
	return e, nil
}

// takeString consumes one uint16-length-prefixed string, interning it so
// the recurring vocabulary of a connection (tenant, session, call labels)
// is allocated once.
func (d *FrameDecoder) takeString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", p, errors.New("truncated length prefix")
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return "", p, fmt.Errorf("declared %d bytes, %d remain", n, len(p))
	}
	return d.intern.bytes(p[:n]), p[n:], nil
}

// takeBytes consumes one uint16-length-prefixed byte run without interning;
// the returned slice aliases p and is only valid until the next frame.
func takeBytes(p []byte) ([]byte, []byte, error) {
	if len(p) < 2 {
		return nil, p, errors.New("truncated length prefix")
	}
	n := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return nil, p, fmt.Errorf("declared %d bytes, %d remain", n, len(p))
	}
	return p[:n], p[n:], nil
}
