package ingest

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/trace"
)

// memSink records every delivered event, optionally refusing some tenants.
// It implements TraceSink, so servers deliver observes through ObserveTraced
// and the recorded events keep their client trace IDs.
type memSink struct {
	mu     sync.Mutex
	got    []Event
	tcs    []trace.Context
	refuse map[string]error
}

func (m *memSink) record(kind Kind, tenant, session, traceID string, calls []collector.Call) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.refuse[tenant]; err != nil {
		return err
	}
	// Copy calls: decoders reuse the slice.
	m.got = append(m.got, Event{Kind: kind, Tenant: tenant, Session: session, Trace: traceID,
		Calls: append([]collector.Call(nil), calls...)})
	return nil
}

func (m *memSink) Observe(tenant, session string, calls []collector.Call) error {
	return m.record(KindObserve, tenant, session, "", calls)
}
func (m *memSink) ObserveTraced(tc trace.Context, tenant, session string, calls []collector.Call) error {
	m.mu.Lock()
	m.tcs = append(m.tcs, tc)
	m.mu.Unlock()
	return m.record(KindObserve, tenant, session, tc.ID, calls)
}
func (m *memSink) Flush(tenant, session string) error {
	return m.record(KindFlush, tenant, session, "", nil)
}
func (m *memSink) CloseSession(tenant, session string) error {
	return m.record(KindClose, tenant, session, "", nil)
}

func (m *memSink) events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.got...)
}

func (m *memSink) contexts() []trace.Context {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]trace.Context(nil), m.tcs...)
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	waitFor(t, "listener registration", func() bool { return srv.Addr() != "" })
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// TestServerAutoDetectsBothCodecs streams one connection per codec into an
// auto-sniffing server and checks both demultiplex into the sink intact.
func TestServerAutoDetectsBothCodecs(t *testing.T) {
	sink := &memSink{}
	srv, addr := startServer(t, ServerConfig{Sink: sink})

	events := sampleEvents()
	var ndjson, frames []byte
	var err error
	for _, e := range events {
		if ndjson, err = EncodeNDJSON(ndjson, e); err != nil {
			t.Fatal(err)
		}
		if frames, err = EncodeFrame(frames, e); err != nil {
			t.Fatal(err)
		}
	}
	for name, wire := range map[string][]byte{"ndjson": ndjson, "binary": frames} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		conn.Close()
	}
	waitFor(t, "all events", func() bool { return len(sink.events()) == 2*len(events) })

	// Both connections carried the same batch, so every event must land
	// exactly twice, byte-identical across codecs.
	for _, want := range events {
		n := 0
		for _, got := range sink.events() {
			if eventsEqual(got, want) {
				n++
			}
		}
		if n != 2 {
			t.Errorf("event %+v delivered %d times, want 2", want, n)
		}
	}
	st := srv.Stats()
	if st.Conns != 2 || st.Events != 2*uint64(len(events)) || st.DecodeErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// plainSink hides memSink's TraceSink extension, forcing the untraced
// delivery path.
type plainSink struct{ m *memSink }

func (p plainSink) Observe(tenant, session string, calls []collector.Call) error {
	return p.m.Observe(tenant, session, calls)
}
func (p plainSink) Flush(tenant, session string) error { return p.m.Flush(tenant, session) }
func (p plainSink) CloseSession(tenant, session string) error {
	return p.m.CloseSession(tenant, session)
}

// TestServerTraceContext pins the wire-level trace context handed to a
// TraceSink: the client's trace ID, the connection's remote address, the
// resolved codec, and a decode timestamp — and that a sink without the
// extension still receives events through the plain path.
func TestServerTraceContext(t *testing.T) {
	sink := &memSink{}
	_, addr := startServer(t, ServerConfig{Sink: sink})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := EncodeNDJSON(nil, sampleEvents()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "traced observe", func() bool { return len(sink.contexts()) == 1 })
	tc := sink.contexts()[0]
	if tc.ID != "c0ffee0123456789" {
		t.Errorf("trace ID = %q", tc.ID)
	}
	if tc.Remote == "" {
		t.Error("trace context missing the remote address")
	}
	if tc.Codec != "ndjson" {
		t.Errorf("trace codec = %q, want ndjson", tc.Codec)
	}
	if tc.Start.IsZero() {
		t.Error("trace context missing the decode time")
	}

	// A sink without the TraceSink extension still gets the event (minus the
	// trace, which the plain interface cannot carry).
	plain := &memSink{}
	_, addr = startServer(t, ServerConfig{Sink: plainSink{plain}})
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "plain observe", func() bool { return len(plain.events()) == 1 })
	if got := plain.events()[0]; got.Trace != "" || got.Kind != KindObserve {
		t.Errorf("plain sink event = %+v", got)
	}
	if len(plain.contexts()) != 0 {
		t.Error("plain sink received a trace context")
	}
}

func TestServerRejectsGarbageConnection(t *testing.T) {
	sink := &memSink{}
	srv, addr := startServer(t, ServerConfig{Sink: sink, Codec: CodecBinary})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("XXXXXXXXXXXXXXXXXXXXXXXX")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "decode error", func() bool { return srv.Stats().DecodeErrors == 1 })
	if got := len(sink.events()); got != 0 {
		t.Fatalf("%d events delivered from a garbage connection", got)
	}
}

// TestServerSinkRejectKeepsStreaming proves refusals degrade, not sever: a
// refused tenant's events are counted as rejects while a healthy tenant's
// events on the same connection still land.
func TestServerSinkRejectKeepsStreaming(t *testing.T) {
	sink := &memSink{refuse: map[string]error{"evil": errors.New("quota")}}
	srv, addr := startServer(t, ServerConfig{Sink: sink})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var wire []byte
	for i := 0; i < 3; i++ {
		if wire, err = EncodeNDJSON(wire, Event{Kind: KindFlush, Tenant: "evil", Session: "e"}); err != nil {
			t.Fatal(err)
		}
	}
	if wire, err = EncodeNDJSON(wire, Event{Kind: KindFlush, Tenant: "good", Session: "g"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "rejects counted", func() bool { return srv.Stats().SinkRejects == 3 })
	waitFor(t, "good event delivered", func() bool {
		for _, e := range sink.events() {
			if e.Tenant == "good" {
				return true
			}
		}
		return false
	})
	if st := srv.Stats(); st.Events != 4 || st.DecodeErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
