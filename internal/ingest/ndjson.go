package ingest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"adprom/internal/collector"
)

// wireCall is one call in an NDJSON event. The label is optional: when
// omitted it defaults to the call name, matching how collectors label
// non-query calls.
type wireCall struct {
	Label  string `json:"label,omitempty"`
	Name   string `json:"name"`
	Caller string `json:"caller,omitempty"`
	Block  int    `json:"block,omitempty"`
	// SQL and Rows feed the SQL-behaviour detection channel: the wire query
	// the call executed (after any client-side rewriting) and the result's
	// row count. Both are optional; senders without query capture simply
	// omit them and the stream degrades to call-sequence detection.
	SQL  string `json:"sql,omitempty"`
	Rows int    `json:"rows,omitempty"`
}

// wireEvent is the NDJSON line schema — the human-debuggable codec:
//
//	{"tenant":"apph","session":"s1","calls":[{"name":"curl_easy_perform","caller":"send_report"}]}
//	{"tenant":"apph","session":"s1","op":"flush"}
//	{"tenant":"apph","session":"s1","op":"close"}
//
// op defaults to "observe" when calls are present.
//
// The struct tags are the codec's definition: encoding/json over wireEvent
// is the reference decoder and encoder. The hand-written scanner and
// appender below are fast paths over a strict subset of it (see scanLine
// and appendEvent) and fall back to encoding/json for everything else, so
// what the wire accepts and produces is encoding/json's behaviour by
// construction.
type wireEvent struct {
	Tenant  string `json:"tenant"`
	Session string `json:"session"`
	Op      string `json:"op,omitempty"`
	// Trace is an optional client-supplied trace ID: the server opens the
	// event's decision trace under it, so a collector can correlate its own
	// telemetry with the server-side stage timeline. Omitted, the server
	// assigns one.
	Trace string     `json:"trace,omitempty"`
	Calls []wireCall `json:"calls,omitempty"`
}

// NDJSONDecoder reads newline-delimited JSON events from a stream. Like
// FrameDecoder it amortises the decoded Calls slice and interns the
// recurring string vocabulary across events. Not safe for concurrent use.
type NDJSONDecoder struct {
	sc     *bufio.Scanner
	calls  []collector.Call
	intern interner
	ls     lineScanner
}

// DefaultMaxLine bounds one NDJSON line (same ceiling as a binary frame).
const DefaultMaxLine = DefaultMaxFrame

// NewNDJSONDecoder wraps r. maxLine bounds a single line's byte length
// (DefaultMaxLine when <= 0).
func NewNDJSONDecoder(r io.Reader, maxLine int) *NDJSONDecoder {
	if maxLine <= 0 {
		maxLine = DefaultMaxLine
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLine)
	return &NDJSONDecoder{sc: sc, intern: make(interner)}
}

// Next decodes the next non-blank line. End of stream returns io.EOF; a
// malformed line returns an error wrapping ErrFrameCorrupt. The returned
// Event's Calls slice is valid only until the following Next.
func (d *NDJSONDecoder) Next() (Event, error) {
	for {
		if !d.sc.Scan() {
			if err := d.sc.Err(); err != nil {
				return Event{}, fmt.Errorf("%w: reading line: %v", ErrFrameCorrupt, err)
			}
			return Event{}, io.EOF
		}
		line := d.sc.Bytes()
		if isBlank(line) {
			continue
		}
		return d.decodeLine(line)
	}
}

func isBlank(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// decodeLine decodes one line: by scanLine when the line lies inside its
// subset, by the reference decoder otherwise.
func (d *NDJSONDecoder) decodeLine(line []byte) (Event, error) {
	if e, ok := d.scanLine(line); ok {
		return e, nil
	}
	return d.decodeJSON(line)
}

// decodeJSON is the reference decoder: encoding/json into wireEvent, then
// toEvent.
func (d *NDJSONDecoder) decodeJSON(line []byte) (Event, error) {
	var we wireEvent
	if err := json.Unmarshal(line, &we); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrFrameCorrupt, err)
	}
	return d.toEvent(we)
}

func (d *NDJSONDecoder) toEvent(we wireEvent) (Event, error) {
	// Trace IDs are unique per op, so interning would only grow the table.
	e := Event{Tenant: d.intern.str(we.Tenant), Session: d.intern.str(we.Session), Trace: we.Trace}
	switch we.Op {
	case "", "observe":
		e.Kind = KindObserve
	case "flush":
		e.Kind = KindFlush
		return e, nil
	case "close":
		e.Kind = KindClose
		return e, nil
	default:
		return Event{}, fmt.Errorf("%w: unknown op %q", ErrFrameCorrupt, we.Op)
	}
	if cap(d.calls) < len(we.Calls) {
		d.calls = make([]collector.Call, len(we.Calls))
	}
	calls := d.calls[:len(we.Calls)]
	for i, wc := range we.Calls {
		label := wc.Label
		if label == "" {
			label = wc.Name
		}
		calls[i] = collector.Call{
			Label:  d.intern.str(label),
			Name:   d.intern.str(wc.Name),
			Caller: d.intern.str(wc.Caller),
			Block:  wc.Block,
			// SQL text is deliberately not interned: literals make most
			// queries distinct, so the intern table would only grow.
			SQL:  wc.SQL,
			Rows: wc.Rows,
		}
	}
	e.Calls = calls
	return e, nil
}

// Key bits for scanLine's at-most-once rule, one set per object level.
const (
	keyTenant = 1 << iota
	keySession
	keyOp
	keyTrace
	keyCalls
)

const (
	keyLabel = 1 << iota
	keyName
	keyCaller
	keyBlock
	keySQL
	keyRows
)

// scanLine decodes line without reflection when it lies inside the subset
// the scanner accepts, and reports false for any other line:
//
//   - one object of the wireEvent schema, with lower-case canonical keys
//     written without escapes, each at most once;
//   - string values of ASCII text and the standard escapes (\uXXXX only
//     outside the surrogate range);
//   - integer values within the range of int, with no fraction or exponent;
//   - JSON whitespace between tokens.
//
// Everything it accepts, encoding/json accepts and decodes into the same
// Event (FuzzDecodeNDJSON holds the two to that), so a false return only
// sends the line down the reference path, which owns every error. Tenant,
// session, label, name and caller are interned straight from the line's
// bytes; only SQL text and trace IDs are copied. toEvent's rules carry
// over: op selects the kind, and a call's label defaults to its name.
func (d *NDJSONDecoder) scanLine(line []byte) (Event, bool) {
	s := &d.ls
	s.b, s.i = line, 0
	var e Event
	kind := KindObserve
	calls := d.calls[:0]
	var seen uint8
	if !s.accept('{') {
		return Event{}, false
	}
	for more := !s.accept('}'); more; {
		key, ok := s.key()
		if !ok {
			return Event{}, false
		}
		var bit uint8
		switch string(key) {
		case "tenant":
			bit = keyTenant
			e.Tenant, ok = d.internedStr()
		case "session":
			bit = keySession
			e.Session, ok = d.internedStr()
		case "op":
			bit = keyOp
			kind, ok = s.op()
		case "trace":
			bit = keyTrace
			e.Trace, ok = s.copiedStr()
		case "calls":
			bit = keyCalls
			calls, ok = d.scanCalls(calls)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return Event{}, false
		}
		seen |= bit
		if more, ok = s.next('}'); !ok {
			return Event{}, false
		}
	}
	if !s.end() {
		return Event{}, false
	}
	d.calls = calls
	e.Kind = kind
	if kind == KindObserve {
		e.Calls = calls
	}
	return e, true
}

// scanCalls scans the calls array, appending each call to calls.
func (d *NDJSONDecoder) scanCalls(calls []collector.Call) ([]collector.Call, bool) {
	s := &d.ls
	if !s.accept('[') {
		return calls, false
	}
	for more := !s.accept(']'); more; {
		if !s.accept('{') {
			return calls, false
		}
		calls = append(calls, collector.Call{})
		c := &calls[len(calls)-1]
		var seen uint8
		for member := !s.accept('}'); member; {
			key, ok := s.key()
			if !ok {
				return calls, false
			}
			var bit uint8
			switch string(key) {
			case "label":
				bit = keyLabel
				c.Label, ok = d.internedStr()
			case "name":
				bit = keyName
				c.Name, ok = d.internedStr()
			case "caller":
				bit = keyCaller
				c.Caller, ok = d.internedStr()
			case "block":
				bit = keyBlock
				c.Block, ok = s.int()
			case "sql":
				bit = keySQL
				c.SQL, ok = s.copiedStr()
			case "rows":
				bit = keyRows
				c.Rows, ok = s.int()
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return calls, false
			}
			seen |= bit
			if member, ok = s.next('}'); !ok {
				return calls, false
			}
		}
		if c.Label == "" {
			c.Label = c.Name
		}
		var ok bool
		if more, ok = s.next(']'); !ok {
			return calls, false
		}
	}
	return calls, true
}

// internedStr scans a string value and interns it.
func (d *NDJSONDecoder) internedStr() (string, bool) {
	v, ok := d.ls.str()
	if !ok {
		return "", false
	}
	return d.intern.bytes(v), true
}

// lineScanner is scanLine's cursor over one line. Every method first skips
// the JSON whitespace that may precede its token, and reports false on
// anything outside the scanner's subset.
type lineScanner struct {
	b   []byte
	i   int
	esc []byte // scratch for strings holding escapes
}

// plain marks the bytes a string or key may hold verbatim in the scanner's
// subset: ASCII from the space up, other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func (s *lineScanner) skipSpace() {
	b, i := s.b, s.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	s.i = i
}

// accept consumes the byte c if it is the next token.
func (s *lineScanner) accept(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// next consumes what follows a member or element: a comma, so more
// follow, or the closing delimiter. Anything else is not ok.
func (s *lineScanner) next(closing byte) (more, ok bool) {
	if s.accept(',') {
		return true, true
	}
	return false, s.accept(closing)
}

// end reports whether only whitespace follows the top-level object.
func (s *lineScanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// key scans an object key written without escapes, and its colon.
func (s *lineScanner) key() ([]byte, bool) {
	if !s.accept('"') {
		return nil, false
	}
	b, start := s.b, s.i
	i := start
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	s.i = i + 1
	return b[start:i], s.accept(':')
}

// str scans a string value and returns its decoded bytes: a slice of the
// line when it holds no escapes, of the scratch buffer otherwise. Either is
// valid only until the next call.
func (s *lineScanner) str() ([]byte, bool) {
	if !s.accept('"') {
		return nil, false
	}
	b, start := s.b, s.i
	i := start
	for i < len(b) && plain[b[i]] {
		i++
	}
	switch {
	case i == len(b):
		return nil, false
	case b[i] == '"':
		s.i = i + 1
		return b[start:i], true
	case b[i] == '\\':
		s.i = i
		return s.strEscaped(start)
	}
	return nil, false
}

// strEscaped finishes a string that began at start and whose first escape
// is at s.i, decoding it into the scratch buffer.
func (s *lineScanner) strEscaped(start int) ([]byte, bool) {
	buf := append(s.esc[:0], s.b[start:s.i]...)
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			s.esc = buf
			return buf, true
		case plain[c]:
			buf = append(buf, c)
			s.i++
			continue
		case c != '\\':
			return nil, false
		}
		if s.i+1 >= len(s.b) {
			return nil, false
		}
		switch s.b[s.i+1] {
		case '"', '\\', '/':
			buf = append(buf, s.b[s.i+1])
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := hex4(s.b[s.i+2:])
			if !ok || (0xD800 <= r && r < 0xE000) {
				// Surrogates pair up or decode to U+FFFD: the reference
				// path's business.
				return nil, false
			}
			buf = utf8.AppendRune(buf, r)
			s.i += 4
		default:
			return nil, false
		}
		s.i += 2
	}
	return nil, false
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// copiedStr scans a string value into a string of its own, for the SQL
// text and trace IDs that interning would only pile up: literals make most
// queries distinct, and trace IDs are unique per op.
func (s *lineScanner) copiedStr() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// op scans the op value. An unknown op is not ok: the reference path
// reports it.
func (s *lineScanner) op() (Kind, bool) {
	v, ok := s.str()
	if !ok {
		return 0, false
	}
	switch string(v) {
	case "", "observe":
		return KindObserve, true
	case "flush":
		return KindFlush, true
	case "close":
		return KindClose, true
	}
	return 0, false
}

// int scans an integer value: an optional minus sign and at most 19 digits
// without a leading zero, within the range of int.
func (s *lineScanner) int() (int, bool) {
	s.skipSpace()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v uint64 // 19 digits cannot overflow it
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		v = v*10 + uint64(s.b[s.i]-'0')
	}
	digits := s.i - start
	if digits == 0 || digits > 19 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	var n int
	if neg {
		if v > -math.MinInt {
			return 0, false
		}
		n = int(-v) // two's complement: -(1<<63) as uint64 converts to MinInt64
	} else {
		if v > math.MaxInt {
			return 0, false
		}
		n = int(v)
	}
	return n, true
}

// EncodeNDJSON appends the NDJSON encoding of e (one line, newline
// terminated) to dst — the collector-side sender for the text codec. The
// line is byte-identical to json.Marshal of the wire schema; events whose
// strings hold non-ASCII bytes are encoded through json.Marshal itself.
func EncodeNDJSON(dst []byte, e Event) ([]byte, error) {
	switch e.Kind {
	case KindObserve, KindFlush, KindClose:
	default:
		return dst, fmt.Errorf("ingest: encoding unknown kind %d", e.Kind)
	}
	if out, ok := appendEvent(dst, e); ok {
		return append(out, '\n'), nil
	}
	return marshalNDJSON(dst, e)
}

// marshalNDJSON is the reference encoder: json.Marshal of the wire schema,
// for an event of a known kind.
func marshalNDJSON(dst []byte, e Event) ([]byte, error) {
	we := wireEvent{Tenant: e.Tenant, Session: e.Session, Trace: e.Trace}
	switch e.Kind {
	case KindObserve:
		we.Calls = make([]wireCall, len(e.Calls))
		for i, c := range e.Calls {
			wc := wireCall{Name: c.Name, Caller: c.Caller, Block: c.Block, SQL: c.SQL, Rows: c.Rows}
			if c.Label != c.Name {
				wc.Label = c.Label
			}
			we.Calls[i] = wc
		}
	case KindFlush:
		we.Op = "flush"
	case KindClose:
		we.Op = "close"
	}
	b, err := json.Marshal(we)
	if err != nil {
		return dst, err
	}
	dst = append(dst, b...)
	return append(dst, '\n'), nil
}

// appendEvent writes what json.Marshal writes for e's wireEvent: fields in
// declaration order, omitempty fields left out when empty. It reports false
// when a string holds a non-ASCII byte; what it appended past len(dst) is
// then garbage.
func appendEvent(dst []byte, e Event) ([]byte, bool) {
	ok := true
	str := func(s string) {
		if ok {
			dst, ok = appendJSONString(dst, s)
		}
	}
	dst = append(dst, `{"tenant":`...)
	str(e.Tenant)
	dst = append(dst, `,"session":`...)
	str(e.Session)
	switch e.Kind {
	case KindFlush:
		dst = append(dst, `,"op":"flush"`...)
	case KindClose:
		dst = append(dst, `,"op":"close"`...)
	}
	if e.Trace != "" {
		dst = append(dst, `,"trace":`...)
		str(e.Trace)
	}
	if e.Kind == KindObserve && len(e.Calls) > 0 {
		dst = append(dst, `,"calls":[`...)
		for i := range e.Calls {
			c := &e.Calls[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			if c.Label != c.Name && c.Label != "" {
				dst = append(dst, `"label":`...)
				str(c.Label)
				dst = append(dst, ',')
			}
			dst = append(dst, `"name":`...)
			str(c.Name)
			if c.Caller != "" {
				dst = append(dst, `,"caller":`...)
				str(c.Caller)
			}
			if c.Block != 0 {
				dst = append(dst, `,"block":`...)
				dst = strconv.AppendInt(dst, int64(c.Block), 10)
			}
			if c.SQL != "" {
				dst = append(dst, `,"sql":`...)
				str(c.SQL)
			}
			if c.Rows != 0 {
				dst = append(dst, `,"rows":`...)
				dst = strconv.AppendInt(dst, int64(c.Rows), 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), ok
}

// appendJSONString appends s as a JSON string the way json.Marshal does
// for ASCII: '"' and '\\' backslash-escaped, \b \f \n \r \t by name, other
// control characters and the HTML-sensitive '<', '>' and '&' as \u00XX.
// It reports false at the first non-ASCII byte.
func appendJSONString(dst []byte, s string) ([]byte, bool) {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return dst, false
		}
		if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"'), true
}
