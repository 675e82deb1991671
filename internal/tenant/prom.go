package tenant

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"adprom/internal/obsv"
	"adprom/internal/runtime"
	"adprom/internal/trace"
)

// WritePrometheus renders the fleet's metrics in the Prometheus text
// exposition format: the router-level families (resident shards, loads,
// evictions, refusals), then every runtime family once under the names a
// lone Runtime exports, with one {tenant="..."} sample set per resident
// shard, so dashboards slice any runtime metric by protected program.
func (r *Router) WritePrometheus(w io.Writer) error {
	p := obsv.NewPromWriter(w)
	rs := r.Stats()
	p.Gauge("adprom_tenants_active", "Tenant shards currently resident.", float64(rs.ActiveTenants))
	p.Counter("adprom_tenant_loads_total", "Tenant shards materialised (lazy loads).", float64(rs.Loads))
	p.Counter("adprom_tenant_evictions_total", "Tenant shards evicted by the LRU cap.", float64(rs.Evictions))
	p.Counter("adprom_tenant_unknown_total", "Routes refused for an unknown tenant.", float64(rs.UnknownTenant))
	p.Counter("adprom_tenant_quota_rejected_total", "Sessions refused by the per-tenant quota.", float64(rs.QuotaRejected))
	if err := p.Err(); err != nil {
		return err
	}
	shards := r.resident()
	set := make([]runtime.Labelled, len(shards))
	for i, sh := range shards {
		set[i] = runtime.Labelled{Labels: [][2]string{{"tenant", sh.id}}, Runtime: sh.rt}
	}
	return runtime.WritePrometheusSet(w, set...)
}

// Introspection wires the fleet into obsv.NewHandler: the fleet's /metrics,
// /tenants (per-tenant stats as JSON), /decisions and /traces scoped by
// ?tenant=, /traces/{id} searched across every resident shard, and the
// probes. A fleet that knows exactly one tenant answers /decisions and
// /traces without ?tenant=; any other fleet answers 400 naming its tenants.
func (r *Router) Introspection() obsv.ServerConfig {
	return obsv.ServerConfig{
		Metrics: r.WritePrometheus,
		Decisions: func(tenant string, limit int) ([]obsv.Decision, error) {
			id, err := r.queryTenant(tenant)
			if err != nil {
				return nil, err
			}
			return r.Decisions(id, limit), nil
		},
		Traces: func(tenant string, limit int) ([]trace.Trace, error) {
			id, err := r.queryTenant(tenant)
			if err != nil {
				return nil, err
			}
			return r.Traces(id, limit), nil
		},
		TraceByID: r.TraceByID,
		Tenants:   func() any { return r.StatsAll() },
		Healthz:   func() error { return nil },
		Readyz:    r.Ready,
	}
}

// queryTenant resolves the tenant an introspection query addresses: the one
// it names, else the fleet's only known tenant (static or resident).
func (r *Router) queryTenant(id string) (string, error) {
	if id != "" {
		return id, nil
	}
	known := map[string]bool{}
	for id := range r.cfg.Static {
		known[id] = true
	}
	for _, sh := range r.resident() {
		known[sh.id] = true
	}
	ids := make([]string, 0, len(known))
	for id := range known {
		ids = append(ids, id)
	}
	if len(ids) == 1 {
		return ids[0], nil
	}
	sort.Strings(ids)
	return "", fmt.Errorf("tenant parameter required: this fleet serves %d tenants [%s]", len(ids), strings.Join(ids, " "))
}
