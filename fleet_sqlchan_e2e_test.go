package adprom

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"adprom/internal/detect"
	"adprom/internal/ingest"
	"adprom/internal/runtime"
	"adprom/internal/tenant"
)

// TestFleetSQLChannelEndToEnd drives the full two-channel serving path over
// the wire: a two-tenant fleet behind a real TCP NDJSON ingest listener,
// where tenant bank-a runs the fused HMM+SQL judge and tenant bank-b stays
// single-channel. A cardinality-mimicry session — query text and call trace
// both indistinguishable from training — streams into bank-a and must be
// flagged via the SQL channel; bank-b's healthy traffic must produce a
// decision log bit-identical to a standalone single-channel runtime fed the
// same events; and the per-tenant channel-provenance counters must appear on
// the fleet's /metrics endpoint.
func TestFleetSQLChannelEndToEnd(t *testing.T) {
	app := BankingApp()
	traces, err := app.CollectTraces(ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := Train(app.Prog, traces, TrainOptions{Train: HMMOptions{MaxIters: 4}})
	if err != nil {
		t.Fatal(err)
	}
	sqlProf, err := TrainSQLProfile(traces, SQLOptions{SensitiveColumns: []string{"name", "balance"}})
	if err != nil {
		t.Fatal(err)
	}

	var mimicry Attack
	for _, a := range SQLChannelBankingAttacks() {
		if a.Name == "cardinality-mimicry" {
			mimicry = a
		}
	}
	if mimicry.Name == "" {
		t.Fatal("cardinality-mimicry attack not bundled")
	}
	prog, err := mimicry.Apply(app.Prog)
	if err != nil {
		t.Fatal(err)
	}
	mimicTrace, err := app.RunCase(prog, mimicry.Cases[0], ModeADPROM, mimicry.Setup)
	if err != nil {
		t.Fatal(err)
	}

	fleet, err := tenant.NewRouter(tenant.Config{
		Static: map[string]*Profile{"bank-a": prof, "bank-b": prof},
		PerTenant: map[string][]runtime.Option{
			"bank-a": {runtime.WithSQLChannel(sqlProf), runtime.WithFusion(FusionConfig{})},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	srv, err := ingest.NewServer(ingest.ServerConfig{Sink: fleet, Codec: ingest.CodecNDJSON})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()

	// One observe+flush pair per trace mirrors ObserveTrace's per-execution
	// window semantics over the wire (flush judges the partial window and
	// resets it).
	healthy := traces[:8]
	var wire []byte
	appendTrace := func(tenant, session string, tr Trace) {
		var err error
		wire, err = EncodeIngestNDJSON(wire, IngestEvent{
			Tenant: tenant, Session: session, Kind: IngestObserve, Calls: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if wire, err = EncodeIngestNDJSON(wire, IngestEvent{
			Tenant: tenant, Session: session, Kind: IngestFlush,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range healthy {
		appendTrace("bank-b", "healthy-1", tr)
	}
	appendTrace("bank-a", "mimic-1", mimicTrace)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	var wantCalls uint64
	for _, tr := range healthy {
		wantCalls += uint64(len(tr))
	}
	waitFor(t, "ingest drained", func() bool {
		a, okA := fleet.TenantStats("bank-a")
		b, okB := fleet.TenantStats("bank-b")
		return okA && okB &&
			a.Runtime.Calls == uint64(len(mimicTrace)) && b.Runtime.Calls == wantCalls
	})

	// The mimicry session is invisible to the HMM — only the SQL channel's
	// cardinality profile can flag it, so the alert provenance must say so.
	aStats, _ := fleet.TenantStats("bank-a")
	var aAlerts uint64
	for _, n := range aStats.Runtime.Alerts {
		aAlerts += n
	}
	if aAlerts == 0 {
		t.Fatal("mimicry session raised no alert on the fused tenant")
	}
	sqlIdx, hmmIdx := detect.ChannelIndex(ChannelSQL), detect.ChannelIndex(ChannelHMM)
	if aStats.Runtime.ChannelAlerts[sqlIdx] == 0 {
		t.Fatalf("no SQL-channel provenance on bank-a: %+v", aStats.Runtime.ChannelAlerts)
	}
	if aStats.Runtime.ChannelAlerts[hmmIdx] != 0 {
		t.Fatalf("HMM channel claimed the mimicry alert: %+v", aStats.Runtime.ChannelAlerts)
	}
	sawSQL := false
	for _, d := range fleet.Decisions("bank-a", 100) {
		for _, ch := range d.Channels {
			if ch == ChannelSQL {
				sawSQL = true
				if d.SQLScore >= d.SQLThreshold {
					t.Errorf("sql-flagged decision not below threshold: %+v", d)
				}
			}
		}
	}
	if !sawSQL {
		t.Fatal("no bank-a decision names the sql channel")
	}

	// The healthy single-channel tenant must be bit-identical to a standalone
	// runtime fed exactly the same events: zero alerts, and the same decision
	// log (timestamps aside).
	bStats, _ := fleet.TenantStats("bank-b")
	for flag, n := range bStats.Runtime.Alerts {
		if n != 0 {
			t.Fatalf("healthy tenant raised %d alerts (flag %d)", n, flag)
		}
	}
	ref := NewRuntime(prof)
	defer ref.Close()
	s := ref.Session("healthy-1")
	for _, tr := range healthy {
		if err := s.ObserveBatch(tr); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	got := fleet.Decisions("bank-b", 1000)
	want := ref.Decisions(1000)
	for i := range got {
		got[i].UnixNanos = 0
	}
	for i := range want {
		want[i].UnixNanos = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("healthy tenant decisions diverge from single-channel runtime:\nfleet: %+v\nref:   %+v", got, want)
	}

	// Channel provenance must be scrapeable per tenant.
	h := httptest.NewServer(NewFleetIntrospectionHandler(fleet, srv))
	defer h.Close()
	resp, err := http.Get(h.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"# TYPE adprom_channel_alerts_total counter",
		`adprom_channel_alerts_total{tenant="bank-a",channel="sql"} 1`,
		`adprom_channel_alerts_total{tenant="bank-b",channel="sql"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The fleet handler is the one introspection handler: tenant-scoped
	// listings, including /traces, and a 400 naming the tenants when a
	// two-tenant fleet is asked without one.
	for path, want := range map[string]int{
		"/decisions?tenant=bank-a": http.StatusOK,
		"/traces?tenant=bank-a":    http.StatusOK,
		"/traces/no-such-trace":    http.StatusNotFound,
		"/decisions":               http.StatusBadRequest,
	} {
		resp, err := http.Get(h.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d %q, want %d", path, resp.StatusCode, body, want)
		}
		if want == http.StatusBadRequest && !(strings.Contains(string(body), "bank-a") && strings.Contains(string(body), "bank-b")) {
			t.Errorf("GET %s refusal %q does not name the fleet's tenants", path, body)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}
