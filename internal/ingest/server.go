package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adprom/internal/collector"
	"adprom/internal/obsv"
	"adprom/internal/trace"
)

// Sink receives decoded events; tenant.Router satisfies it. ObserveTraced
// carries each observe event's wire-level trace context: the client-supplied
// trace ID (if the event had one), the decode time, and the connection's
// remote address and codec — so a decision trace the sink opens covers
// everything from decode onward. Flush and close events carry no trace.
// ObserveTraced may block (queue backpressure, the runtime default) or
// return a shed/quota error — both compose with the server's per-connection
// handling: blocking stalls that connection's read loop (closing its TCP
// window), errors are counted and the stream continues.
type Sink interface {
	ObserveTraced(tc trace.Context, tenant, session string, calls []collector.Call) error
	Flush(tenant, session string) error
	CloseSession(tenant, session string) error
}

// Codec selects the wire format a listener accepts.
type Codec int

const (
	// CodecAuto sniffs each connection's first bytes: frames open with the
	// "ADIN" magic, anything else is treated as NDJSON.
	CodecAuto Codec = iota
	// CodecNDJSON accepts newline-delimited JSON events only.
	CodecNDJSON
	// CodecBinary accepts length-prefixed binary frames only.
	CodecBinary
)

func (c Codec) String() string {
	switch c {
	case CodecAuto:
		return "auto"
	case CodecNDJSON:
		return "ndjson"
	case CodecBinary:
		return "binary"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// ParseCodec maps a flag value ("auto", "ndjson", "binary") to a Codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "auto":
		return CodecAuto, nil
	case "ndjson":
		return CodecNDJSON, nil
	case "binary":
		return CodecBinary, nil
	default:
		return CodecAuto, fmt.Errorf("ingest: unknown codec %q (want auto, ndjson or binary)", s)
	}
}

// ServerConfig configures a Server. The zero value (plus a Sink) serves
// both codecs with default limits.
type ServerConfig struct {
	// Sink receives decoded events. Required.
	Sink Sink
	// Codec restricts the accepted wire format; CodecAuto sniffs per
	// connection.
	Codec Codec
	// MaxFrame bounds one binary payload or NDJSON line
	// (DefaultMaxFrame when 0).
	MaxFrame int
	// Logger receives connection lifecycle and decode-failure records;
	// nil discards.
	Logger *slog.Logger
}

// ServerStats is a point-in-time snapshot of a server's counters.
type ServerStats struct {
	// Conns counts connections accepted since start.
	Conns uint64
	// ActiveConns counts connections currently being served.
	ActiveConns int64
	// Events counts events decoded and dispatched to the sink.
	Events uint64
	// Calls counts calls carried by observe events.
	Calls uint64
	// DecodeErrors counts connections dropped for malformed input.
	DecodeErrors uint64
	// SinkRejects counts events the sink refused (unknown tenant, quota,
	// risk-aware shedding); the connection keeps streaming.
	SinkRejects uint64
}

func (s ServerStats) String() string {
	return fmt.Sprintf("conns=%d active=%d events=%d calls=%d decode_errors=%d sink_rejects=%d",
		s.Conns, s.ActiveConns, s.Events, s.Calls, s.DecodeErrors, s.SinkRejects)
}

// Server accepts collector connections and streams their events into a
// Sink. Each connection is served by one goroutine whose read loop is the
// backpressure boundary: a full shard queue blocks it, which stops reads,
// which closes the remote's TCP send window.
type Server struct {
	cfg ServerConfig
	log *slog.Logger

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	conns_       atomic.Uint64
	active       atomic.Int64
	events       atomic.Uint64
	calls        atomic.Uint64
	decodeErrors atomic.Uint64
	sinkRejects  atomic.Uint64
}

// NewServer builds a server; it owns no listener until Serve or
// ListenAndServe.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Sink == nil {
		return nil, errors.New("ingest: ServerConfig.Sink is required")
	}
	log := cfg.Logger
	if log == nil {
		// Drop records above the Enabled gate; Debug-level records on the
		// per-event path are filtered before formatting.
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	return &Server{cfg: cfg, log: log, conns: make(map[net.Conn]struct{})}, nil
}

// ListenAndServe binds addr (e.g. "127.0.0.1:9090") and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close (which returns nil here) or a
// permanent accept failure.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("ingest: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.log.Info("ingest listening", "addr", ln.Addr().String(), "codec", s.cfg.Codec.String())
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("ingest: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.conns_.Add(1)
		s.active.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.active.Add(-1)
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Addr returns the bound listen address ("" before Serve) — lets tests and
// cmd/adprom report the ephemeral port of ":0".
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Conns:        s.conns_.Load(),
		ActiveConns:  s.active.Load(),
		Events:       s.events.Load(),
		Calls:        s.calls.Load(),
		DecodeErrors: s.decodeErrors.Load(),
		SinkRejects:  s.sinkRejects.Load(),
	}
}

// Close stops accepting, severs open connections and waits for their
// goroutines to exit. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// decoder is the common shape of both codec readers.
type decoder interface {
	Next() (Event, error)
}

// serveConn drains one connection through its codec until EOF, a decode
// failure, or Close, handing each event to the sink. Observe events carry
// the wire trace context so the decision trace opens at decode time. Sink
// refusals are counted without breaking the stream — risk-aware shedding and
// quota pushback degrade a connection's throughput, they do not sever it.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	remote := conn.RemoteAddr().String()
	br := bufio.NewReader(conn)
	dec, codec, err := s.newDecoder(br)
	if err != nil {
		s.decodeErrors.Add(1)
		s.log.Warn("ingest connection rejected", "remote", remote, "err", err)
		return
	}
	s.log.Debug("ingest connection open", "remote", remote, "codec", codec.String())
	sink := s.cfg.Sink
	for {
		e, err := dec.Next()
		if err != nil {
			if err == io.EOF {
				s.log.Debug("ingest connection closed", "remote", remote)
				return
			}
			s.decodeErrors.Add(1)
			s.log.Warn("ingest connection dropped", "remote", remote, "err", err)
			return
		}
		s.events.Add(1)
		switch e.Kind {
		case KindObserve:
			s.calls.Add(uint64(len(e.Calls)))
			err = sink.ObserveTraced(trace.Context{
				ID:     e.Trace,
				Start:  time.Now(),
				Remote: remote,
				Codec:  codec.String(),
			}, e.Tenant, e.Session, e.Calls)
		case KindFlush:
			err = sink.Flush(e.Tenant, e.Session)
		case KindClose:
			err = sink.CloseSession(e.Tenant, e.Session)
		}
		if err != nil {
			s.sinkRejects.Add(1)
			s.log.Debug("ingest event rejected", "remote", remote,
				"tenant", e.Tenant, "session", e.Session, "kind", e.Kind.String(), "err", err)
		}
	}
}

// newDecoder picks the codec for a connection, sniffing the first bytes
// under CodecAuto: a stream opening with the frame magic is binary,
// anything else NDJSON.
func (s *Server) newDecoder(br *bufio.Reader) (decoder, Codec, error) {
	codec := s.cfg.Codec
	if codec == CodecAuto {
		head, err := br.Peek(len(frameMagic))
		if err != nil {
			return nil, codec, fmt.Errorf("%w: sniffing codec: %v", ErrFrameCorrupt, err)
		}
		if [4]byte(head) == frameMagic {
			codec = CodecBinary
		} else {
			codec = CodecNDJSON
		}
	}
	switch codec {
	case CodecBinary:
		return NewFrameDecoder(br, s.cfg.MaxFrame), codec, nil
	default:
		return NewNDJSONDecoder(br, s.cfg.MaxFrame), CodecNDJSON, nil
	}
}

// WritePrometheus renders the server counters in the Prometheus text
// exposition format, for mounting alongside the fleet's metrics.
func (s *Server) WritePrometheus(w io.Writer) error {
	st := s.Stats()
	p := obsv.NewPromWriter(w)
	p.Counter("adprom_ingest_connections_total", "Collector connections accepted.", float64(st.Conns))
	p.Gauge("adprom_ingest_connections_active", "Collector connections currently served.", float64(st.ActiveConns))
	p.Counter("adprom_ingest_events_total", "Events decoded and dispatched to the tenant router.", float64(st.Events))
	p.Counter("adprom_ingest_calls_total", "Calls carried by observe events.", float64(st.Calls))
	p.Counter("adprom_ingest_decode_errors_total", "Connections dropped for malformed input.", float64(st.DecodeErrors))
	p.Counter("adprom_ingest_sink_rejects_total", "Events refused by the sink (unknown tenant, quota, shedding).", float64(st.SinkRejects))
	return p.Err()
}
