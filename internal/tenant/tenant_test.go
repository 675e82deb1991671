package tenant

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/detect"
	"adprom/internal/hmm"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/trace"
)

var appHOnce struct {
	sync.Once
	p      *profile.Profile
	traces []collector.Trace
	err    error
}

func trainAppH(t testing.TB) (*profile.Profile, []collector.Trace) {
	t.Helper()
	appHOnce.Do(func() {
		app := dataset.AppH()
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			appHOnce.err = err
			return
		}
		p, _, err := core.Train(app.Prog, traces, profile.Options{
			Train: hmm.TrainOptions{MaxIters: 6},
		})
		appHOnce.p, appHOnce.traces, appHOnce.err = p, traces, err
	})
	if appHOnce.err != nil {
		t.Fatal(appHOnce.err)
	}
	return appHOnce.p, appHOnce.traces
}

// attacked appends a foreign call burst so the stream alerts.
func attacked(tr collector.Trace) collector.Trace {
	out := append(collector.Trace{}, tr...)
	for i := 0; i < 6; i++ {
		out = append(out, collector.Call{
			Label: "curl_easy_perform", Name: "curl_easy_perform", Caller: "main",
		})
	}
	return out
}

// TestRouterObserveTraced checks the fleet tracing seam: an observe routed
// with wire trace context opens the decision trace on the tenant's shard,
// stamps the tenant, records the routing stage, and surfaces the finished
// trace through both Traces(tenant) and the cross-shard TraceByID lookup.
func TestRouterObserveTraced(t *testing.T) {
	p, traces := trainAppH(t)
	r, err := NewRouter(Config{
		Static: map[string]*profile.Profile{"apph": p},
		RuntimeOptions: []runtime.Option{
			runtime.WithWorkers(2),
			runtime.WithTracing(64, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	tc := trace.Context{ID: "fleet-op-1", Remote: "10.1.2.3:999", Codec: "ndjson"}
	if err := r.ObserveTraced(tc, "apph", "s1", attacked(traces[0])); err != nil {
		t.Fatal(err)
	}

	var tr trace.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		var ok bool
		if tr, ok = r.TraceByID("fleet-op-1"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace never committed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if tr.Tenant != "apph" || tr.Session != "s1" {
		t.Errorf("trace identity = tenant %q session %q", tr.Tenant, tr.Session)
	}
	if !tr.Alert {
		t.Error("attacked stream's trace not marked alert-bearing")
	}
	if tr.Spans[0].Stage != "ingest" {
		t.Errorf("root span stage = %q, want ingest", tr.Spans[0].Stage)
	}
	route := tr.Span("route")
	if route == nil {
		t.Fatal("no route span")
	}
	if a, ok := route.Attr("tenant"); !ok || a.Str != "apph" {
		t.Errorf("route span tenant attr = %+v", route.Attrs)
	}
	if tr.Span("score") == nil || tr.Span("admit") == nil {
		t.Errorf("trace missing pipeline spans: %+v", tr.Spans)
	}

	if got := r.Traces("apph", 0); len(got) == 0 {
		t.Error("Traces(apph) empty after a committed trace")
	}
	if got := r.Traces("ghost", 0); got != nil {
		t.Errorf("Traces on a non-resident tenant returned %d traces", len(got))
	}
	if _, ok := r.TraceByID("no-such-trace"); ok {
		t.Error("TraceByID found a trace that was never opened")
	}

	// A router whose shards trace nothing serves the same call untraced.
	r2, err := NewRouter(Config{Static: map[string]*profile.Profile{"apph": p}})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.ObserveTraced(tc, "apph", "s1", traces[0][:1]); err != nil {
		t.Fatal(err)
	}
	if got := r2.Traces("apph", 0); got != nil {
		t.Errorf("untraced shard retained %d traces", len(got))
	}
}

// TestRouterReplacesOversizedTraceID checks that a client-supplied trace ID
// past trace.MaxIDLen is treated as absent: the store assigns its own, so a
// 64 KiB ID is retained neither in the trace store nor in the decision log,
// and the fleet's /metrics counts the replacement under the tenant's label.
// An ID of exactly MaxIDLen bytes is honoured.
func TestRouterReplacesOversizedTraceID(t *testing.T) {
	p, traces := trainAppH(t)
	r, err := NewRouter(Config{
		Static: map[string]*profile.Profile{"apph": p},
		RuntimeOptions: []runtime.Option{
			runtime.WithWorkers(1),
			runtime.WithTracing(64, 1),
			runtime.WithDecisionLog(64, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	huge := strings.Repeat("x", 64<<10)
	if err := r.ObserveTraced(trace.Context{ID: huge}, "apph", "s1", attacked(traces[0])); err != nil {
		t.Fatal(err)
	}
	atCap := strings.Repeat("y", trace.MaxIDLen)
	if err := r.ObserveTraced(trace.Context{ID: atCap}, "apph", "s2", traces[0]); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"s1", "s2"} {
		if err := r.Flush("apph", s); err != nil {
			t.Fatal(err)
		}
	}
	var alertID string
	deadline := time.Now().Add(5 * time.Second)
	for alertID == "" {
		for _, tr := range r.Traces("apph", 0) {
			if tr.Alert && tr.Session == "s1" {
				alertID = tr.ID
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the attacked op's trace never committed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(alertID) > trace.MaxIDLen {
		t.Fatalf("alert trace kept a %d-byte client ID", len(alertID))
	}
	if _, ok := r.TraceByID(atCap); !ok {
		t.Errorf("a %d-byte client ID was not honoured", trace.MaxIDLen)
	}
	for _, tr := range r.Traces("apph", 0) {
		if len(tr.ID) > trace.MaxIDLen {
			t.Errorf("trace store holds a %d-byte ID", len(tr.ID))
		}
	}
	flagged := 0
	for _, d := range r.Decisions("apph", 0) {
		if len(d.Trace) > trace.MaxIDLen {
			t.Errorf("decision %d holds a %d-byte trace ID", d.Seq, len(d.Trace))
		}
		if d.Flagged && d.Session == "s1" {
			flagged++
			if d.Trace != alertID {
				t.Errorf("flagged decision trace = %q, want the assigned ID %q", d.Trace, alertID)
			}
		}
	}
	if flagged == 0 {
		t.Error("no flagged decision recorded for the attacked op")
	}
	var metrics strings.Builder
	if err := r.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if want := `adprom_trace_ids_replaced_total{tenant="apph"} 1` + "\n"; !strings.Contains(metrics.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestRouterRoutesTenantsIndependently drives two tenants' streams through
// one router and checks each tenant's per-shard accounting saw exactly its
// own traffic.
func TestRouterRoutesTenantsIndependently(t *testing.T) {
	p, traces := trainAppH(t)
	r, err := NewRouter(Config{
		Static:         map[string]*profile.Profile{"alpha": p, "beta": p},
		RuntimeOptions: []runtime.Option{runtime.WithWorkers(2), runtime.WithQueueDepth(64)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	alphaTrace, betaTrace := traces[0], attacked(traces[0])
	if err := r.Observe("alpha", "s1", alphaTrace); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe("beta", "s1", betaTrace); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"alpha", "beta"} {
		if err := r.CloseSession(tenant, "s1"); err != nil {
			t.Fatal(err)
		}
	}

	alpha, ok := r.TenantStats("alpha")
	if !ok {
		t.Fatal("alpha not resident")
	}
	beta, ok := r.TenantStats("beta")
	if !ok {
		t.Fatal("beta not resident")
	}
	if alpha.Runtime.Calls != uint64(len(alphaTrace)) {
		t.Errorf("alpha calls = %d, want %d", alpha.Runtime.Calls, len(alphaTrace))
	}
	if beta.Runtime.Calls != uint64(len(betaTrace)) {
		t.Errorf("beta calls = %d, want %d", beta.Runtime.Calls, len(betaTrace))
	}
	// The attacked stream alerts; its alerts must be accounted to beta only.
	if beta.Runtime.AlertTotal() == 0 {
		t.Error("attacked tenant raised no alerts")
	}
	if alpha.Runtime.AlertTotal() != 0 {
		t.Errorf("clean tenant charged %d alerts from its neighbour", alpha.Runtime.AlertTotal())
	}
	if got := r.Tenants(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Errorf("Tenants() = %v", got)
	}
}

// TestRouterAlertsMatchSingleTenantBaseline holds tenant serving to the
// paper's detection semantics: a stream scored through a shard produces the
// same judgement count as the sequential Monitor on the same profile.
func TestRouterAlertsMatchSingleTenantBaseline(t *testing.T) {
	p, traces := trainAppH(t)
	stream := attacked(traces[0])
	want := core.NewMonitor(p, nil).ObserveTrace(stream)

	var got []detect.Alert
	var mu sync.Mutex
	r, err := NewRouter(Config{
		Static: map[string]*profile.Profile{"alpha": p},
		RuntimeOptions: []runtime.Option{
			runtime.WithWorkers(2),
			runtime.WithAlertFunc(func(session string, a detect.Alert) {
				mu.Lock()
				got = append(got, a)
				mu.Unlock()
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Observe("alpha", "s1", stream); err != nil {
		t.Fatal(err)
	}
	if err := r.CloseSession("alpha", "s1"); err != nil {
		t.Fatal(err)
	}
	r.Close() // drains the alert sink
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("%d alerts through the shard, %d through the Monitor", len(got), len(want))
	}
}

func TestRouterUnknownTenant(t *testing.T) {
	p, _ := trainAppH(t)
	r, err := NewRouter(Config{Static: map[string]*profile.Profile{"alpha": p}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Observe("ghost", "s1", nil); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("got %v, want ErrUnknownTenant", err)
	}
	if rs := r.Stats(); rs.UnknownTenant != 1 {
		t.Errorf("UnknownTenant = %d, want 1", rs.UnknownTenant)
	}
}

// TestRouterLazyLoadAndLRUEviction exercises the loader seam and the
// residency cap: the coldest tenant is evicted when a load pushes past
// MaxActive, its sessions drained, and a later route reloads it.
func TestRouterLazyLoadAndLRUEviction(t *testing.T) {
	p, traces := trainAppH(t)
	var loads []string
	var evicted []string
	var evictedCalls uint64
	r, err := NewRouter(Config{
		Loader: LoaderFunc(func(id string) (*profile.Profile, error) {
			loads = append(loads, id)
			return p, nil
		}),
		MaxActive: 2,
		OnEvict: func(id string, final runtime.Stats) {
			evicted = append(evicted, id)
			evictedCalls = final.Calls
		},
		RuntimeOptions: []runtime.Option{runtime.WithWorkers(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// t1 gets traffic so its final stats prove the drain saw it.
	if err := r.Observe("t1", "s", traces[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Shard("t2"); err != nil {
		t.Fatal(err)
	}
	// Touch t1 so t2 is now the coldest.
	if _, err := r.Shard("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Shard("t3"); err != nil {
		t.Fatal(err)
	}
	if got := r.Tenants(); len(got) != 2 || got[0] != "t1" || got[1] != "t3" {
		t.Fatalf("resident after eviction: %v (want [t1 t3])", got)
	}
	if len(evicted) != 1 || evicted[0] != "t2" {
		t.Fatalf("evicted %v, want [t2]", evicted)
	}
	// Re-routing the evicted tenant reloads it (and evicts the new coldest).
	if _, err := r.Shard("t2"); err != nil {
		t.Fatal(err)
	}
	if len(loads) != 4 {
		t.Fatalf("loader calls: %v, want 4 loads (t1 t2 t3 t2)", loads)
	}
	rs := r.Stats()
	if rs.Loads != 4 || rs.Evictions != 2 || rs.ActiveTenants != 2 {
		t.Fatalf("router stats: %+v", rs)
	}

	// Evicting t1 drained its session: its final stats carried the calls.
	if evictedCalls != uint64(len(traces[0])) {
		t.Errorf("evicted t1 final calls = %d, want %d", evictedCalls, len(traces[0]))
	}
}

func TestRouterSessionQuota(t *testing.T) {
	p, _ := trainAppH(t)
	r, err := NewRouter(Config{
		Static:               map[string]*profile.Profile{"alpha": p, "beta": p},
		MaxSessionsPerTenant: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, s := range []string{"s1", "s2"} {
		if _, err := r.Session("alpha", s); err != nil {
			t.Fatal(err)
		}
	}
	// Re-fetching an existing session is not a new slot.
	if _, err := r.Session("alpha", "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Session("alpha", "s3"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third session: %v, want ErrTenantQuota", err)
	}
	// The quota is per tenant: beta is unaffected by alpha's saturation.
	if _, err := r.Session("beta", "s1"); err != nil {
		t.Fatalf("beta blocked by alpha's quota: %v", err)
	}
	// Closing a session releases its slot.
	if err := r.CloseSession("alpha", "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Session("alpha", "s3"); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if rs := r.Stats(); rs.QuotaRejected != 1 {
		t.Errorf("QuotaRejected = %d, want 1", rs.QuotaRejected)
	}
}

// TestRouterFlushUnknownSession checks that flushing a session the router
// has never seen — a collector flushing stale session IDs after a reconnect
// — neither registers it nor charges it to the tenant's quota.
func TestRouterFlushUnknownSession(t *testing.T) {
	p, traces := trainAppH(t)
	r, err := NewRouter(Config{
		Static:               map[string]*profile.Profile{"t": p},
		MaxSessionsPerTenant: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if err := r.Flush("t", "ghost"); err != nil {
		t.Fatalf("flushing an unknown session: %v", err)
	}
	sh, err := r.Shard("t")
	if err != nil {
		t.Fatal(err)
	}
	if n := sh.Runtime().ActiveSessions(); n != 0 {
		t.Fatalf("flushing an unknown session registered %d session(s)", n)
	}
	if err := r.Observe("t", "real", traces[0]); err != nil {
		t.Fatalf("first real session refused after a ghost flush: %v", err)
	}
	if err := r.Flush("unknown-tenant", "s"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("flush on an unknown tenant: %v, want ErrUnknownTenant", err)
	}
}

// TestRouterStaleFlushLoadsNothing checks that a flush or close addressed to
// a tenant the LRU cap evicted neither reloads its profile nor evicts the
// live tenant in its place: the evicted shard's sessions were drained when
// it went, so there is nothing to judge.
func TestRouterStaleFlushLoadsNothing(t *testing.T) {
	p, traces := trainAppH(t)
	r, err := NewRouter(Config{
		Static:         map[string]*profile.Profile{"a": p, "b": p},
		MaxActive:      1,
		RuntimeOptions: []runtime.Option{runtime.WithWorkers(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Observe("a", "s", traces[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe("b", "s", traces[0]); err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	if before.Loads != 2 || before.Evictions != 1 {
		t.Fatalf("router stats after a then b: %+v", before)
	}
	if err := r.Flush("a", "stale"); err != nil {
		t.Fatalf("stale flush: %v", err)
	}
	if err := r.CloseSession("a", "s"); err != nil {
		t.Fatalf("stale close: %v", err)
	}
	if after := r.Stats(); after.Loads != before.Loads || after.Evictions != before.Evictions {
		t.Fatalf("stale flush and close moved the router from %+v to %+v", before, after)
	}
	if got := r.Tenants(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("resident after stale flush: %v, want [b]", got)
	}
	if err := r.Flush("b", "s"); err != nil {
		t.Fatalf("flush of the live tenant: %v", err)
	}
}

func TestRouterSwapProfile(t *testing.T) {
	p, _ := trainAppH(t)
	r, err := NewRouter(Config{Static: map[string]*profile.Profile{"alpha": p}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	gen, err := r.SwapProfile("alpha", p)
	if err != nil {
		t.Fatal(err)
	}
	if gen < 2 {
		t.Fatalf("generation after swap = %d, want >= 2", gen)
	}
	st, _ := r.TenantStats("alpha")
	if st.Runtime.Swaps != 1 {
		t.Errorf("Swaps = %d, want 1", st.Runtime.Swaps)
	}
}

func TestRouterClose(t *testing.T) {
	p, _ := trainAppH(t)
	r, err := NewRouter(Config{Static: map[string]*profile.Profile{"alpha": p}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Shard("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := r.Shard("alpha"); !errors.Is(err, ErrClosed) {
		t.Fatalf("route after close: %v, want ErrClosed", err)
	}
	if err := r.Ready(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ready after close: %v, want ErrClosed", err)
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(Config{}); err == nil {
		t.Fatal("router with no profile source built without error")
	}
}

// BenchmarkTenantRoute holds the resident routing hot path to zero
// allocations: one read lock, one map probe, one atomic stamp.
func BenchmarkTenantRoute(b *testing.B) {
	p, _ := trainAppH(b)
	static := make(map[string]*profile.Profile)
	for i := 0; i < 16; i++ {
		static[fmt.Sprintf("tenant-%02d", i)] = p
	}
	r, err := NewRouter(Config{Static: static, RuntimeOptions: []runtime.Option{runtime.WithWorkers(1)}})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	ids := make([]string, 0, len(static))
	for id := range static {
		ids = append(ids, id)
		if _, err := r.Shard(id); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Shard(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}
