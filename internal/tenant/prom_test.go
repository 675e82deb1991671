package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"adprom/internal/obsv"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/trace"
)

// tracedFleet builds a traced fleet over the given tenants and streams one
// attacked trace into each under a client trace ID of "<tenant>-op",
// waiting until every trace has committed.
func tracedFleet(t *testing.T, tenants ...string) *Router {
	t.Helper()
	p, traces := trainAppH(t)
	static := map[string]*profile.Profile{}
	for _, id := range tenants {
		static[id] = p
	}
	r, err := NewRouter(Config{
		Static:         static,
		RuntimeOptions: []runtime.Option{runtime.WithWorkers(2), runtime.WithTracing(64, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	for i, id := range tenants {
		if err := r.ObserveTraced(trace.Context{ID: id + "-op"}, id, "s1", attacked(traces[i])); err != nil {
			t.Fatal(err)
		}
		if err := r.Flush(id, "s1"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range tenants {
		for {
			if _, ok := r.TraceByID(id + "-op"); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("trace %s-op never committed", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return r
}

func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestFleetIntrospectionHandler serves a fleet through the one
// introspection handler: a one-tenant fleet answers /decisions and /traces
// without ?tenant=, a two-tenant fleet refuses them with a 400 naming both
// tenants, ?limit is honoured, /traces/{id} resolves on whichever shard
// holds the trace, and /tenants is JSON.
func TestFleetIntrospectionHandler(t *testing.T) {
	one := httptest.NewServer(obsv.NewHandler(tracedFleet(t, "alpha").Introspection()))
	defer one.Close()
	for _, path := range []string{"/decisions?limit=1", "/traces?limit=1"} {
		code, body := fetch(t, one.URL+path)
		var got []json.RawMessage
		if err := json.Unmarshal([]byte(body), &got); code != http.StatusOK || err != nil || len(got) != 1 {
			t.Errorf("one-tenant %s = %d with %d entries (err %v), want 200 with 1:\n%.200s", path, code, len(got), err, body)
		}
	}

	two := tracedFleet(t, "alpha", "beta")
	srv := httptest.NewServer(obsv.NewHandler(two.Introspection()))
	defer srv.Close()
	for _, path := range []string{"/decisions", "/traces"} {
		code, body := fetch(t, srv.URL+path)
		if code != http.StatusBadRequest || !strings.Contains(body, "alpha") || !strings.Contains(body, "beta") {
			t.Errorf("two-tenant %s without ?tenant = %d %q, want 400 naming alpha and beta", path, code, body)
		}
	}
	for _, limit := range []int{1, 2} {
		code, body := fetch(t, srv.URL+"/decisions?tenant=beta&limit="+strconv.Itoa(limit))
		var ds []obsv.Decision
		if err := json.Unmarshal([]byte(body), &ds); code != http.StatusOK || err != nil || len(ds) != limit {
			t.Fatalf("/decisions?tenant=beta&limit=%d = %d with %d decisions (err %v)", limit, code, len(ds), err)
		}
		if want := two.Decisions("beta", limit); ds[0].Seq != want[0].Seq || ds[0].Session != want[0].Session {
			t.Errorf("/decisions?tenant=beta returned %+v, want beta's newest %+v", ds[0], want[0])
		}
	}
	code, body := fetch(t, srv.URL+"/traces?tenant=beta&limit=0")
	var trs []trace.Trace
	if err := json.Unmarshal([]byte(body), &trs); code != http.StatusOK || err != nil || len(trs) == 0 {
		t.Fatalf("/traces?tenant=beta = %d with %d traces (err %v)", code, len(trs), err)
	}
	for _, tr := range trs {
		if tr.Tenant != "beta" && tr.Tenant != "" {
			t.Errorf("/traces?tenant=beta returned a %s trace", tr.Tenant)
		}
	}
	// beta sorts after alpha, so resolving its trace crosses a shard miss.
	code, body = fetch(t, srv.URL+"/traces/beta-op")
	var tr trace.Trace
	if err := json.Unmarshal([]byte(body), &tr); code != http.StatusOK || err != nil || tr.ID != "beta-op" || tr.Tenant != "beta" {
		t.Errorf("/traces/beta-op = %d id %q tenant %q (err %v)", code, tr.ID, tr.Tenant, err)
	}
	if code, _ := fetch(t, srv.URL+"/traces/no-such-trace"); code != http.StatusNotFound {
		t.Errorf("/traces/no-such-trace = %d, want 404", code)
	}

	code, body = fetch(t, srv.URL+"/tenants")
	var stats []Stats
	if err := json.Unmarshal([]byte(body), &stats); code != http.StatusOK || err != nil ||
		len(stats) != 2 || stats[0].Tenant != "alpha" || stats[1].Tenant != "beta" || stats[1].Runtime.Calls == 0 {
		t.Errorf("/tenants = %d %+v (err %v), want JSON stats for alpha and beta", code, stats, err)
	}
}

// TestWriteTenantPrometheusCoversEveryCounter is the fleet side of the
// runtime's exposition guard (runtime.TestWritePrometheusCoversEveryCounter
// holds the counters map bidirectional). It checks the fleet's /metrics
// end to end: each family a lone shard runtime exports appears exactly
// once, under the same name, with one tenant-labelled sample set per shard
// and each tenant's calls attributed to it alone; the router-level
// families ride along, the retired per-tenant copies are gone, and every
// sample line parses.
func TestWriteTenantPrometheusCoversEveryCounter(t *testing.T) {
	_, traces := trainAppH(t)
	r := tracedFleet(t, "alpha", "beta")
	var fleet, lone bytes.Buffer
	if err := r.WritePrometheus(&fleet); err != nil {
		t.Fatal(err)
	}
	sh, err := r.Shard("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Runtime().WritePrometheus(&lone); err != nil {
		t.Fatal(err)
	}
	out := fleet.String()
	families := 0
	for _, line := range strings.Split(lone.String(), "\n") {
		name, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		name = strings.Fields(name)[0]
		families++
		if n := strings.Count(out, "# TYPE "+name+" "); n != 1 {
			t.Errorf("family %s appears %d times on the fleet scrape, want once", name, n)
		}
	}
	if families < 30 {
		t.Fatalf("lone runtime exposition has only %d families", families)
	}
	for _, id := range []string{"alpha", "beta"} {
		for _, want := range []string{
			fmt.Sprintf(`adprom_workers{tenant=%q} 2`, id),
			fmt.Sprintf(`adprom_worker_queue_depth{tenant=%q,worker="0"} `, id),
			fmt.Sprintf(`adprom_profile_generation{tenant=%q} 1`, id),
			fmt.Sprintf(`adprom_decisions_recorded_total{tenant=%q} `, id),
			fmt.Sprintf(`adprom_observe_latency_seconds_count{tenant=%q} `, id),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("fleet scrape lacks %q", want)
			}
		}
	}
	// Per-tenant calls are attributed, not pooled.
	for i, id := range []string{"alpha", "beta"} {
		want := fmt.Sprintf("adprom_calls_total{tenant=%q} %d\n", id, len(attacked(traces[i])))
		if !strings.Contains(out, want) {
			t.Errorf("fleet scrape lacks %q", strings.TrimSpace(want))
		}
	}
	for _, want := range []string{
		"adprom_tenants_active 2", "adprom_tenant_loads_total 2",
		"adprom_tenant_evictions_total 0", "adprom_tenant_unknown_total 0",
		"adprom_tenant_quota_rejected_total 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("fleet scrape lacks router sample %q", want)
		}
	}
	for _, gone := range []string{"adprom_tenant_calls_total", "adprom_tenant_generation", "adprom_tenant_queue_depth"} {
		if strings.Contains(out, gone) {
			t.Errorf("fleet scrape still carries the retired per-tenant family %s", gone)
		}
	}
	// Exposition stays parseable: `name[{labels}] value` per sample line.
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		if v := line[sp+1:]; v != "+Inf" {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("line %d: unparseable value %q: %v", ln+1, v, err)
			}
		}
	}
}
