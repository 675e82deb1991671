// Package tenant turns the single-profile detection runtime into a fleet
// server: one Router serves many protected application programs at once,
// each behind its own profile shard.
//
// # Model
//
//   - A tenant is one monitored application program with its own trained
//     profile lineage — the paper's deployment unit. The Router keys tenants
//     by an operator-chosen id (typically the program name).
//   - Each live tenant is served by a Shard wrapping one runtime.Runtime:
//     its own worker pool, bounded ingest queues, backpressure or shed
//     policy, engine pool, stats, and hot-swap generation pointer. Isolation
//     is therefore structural — a noisy tenant saturates its own queues and
//     its own shed controller, never another tenant's.
//   - Profiles load lazily: the first call routed to a tenant materialises
//     its shard, fetching the profile from the static map or the configured
//     Loader (usually a Registry of per-tenant profile lineages). At most
//     MaxActive shards stay resident; loading one more evicts the
//     least-recently-routed shard, draining its sessions through
//     Runtime.Close before the slot is reused.
//   - Quotas bound each tenant's footprint: MaxSessionsPerTenant caps
//     concurrent sessions per shard (ErrTenantQuota past it), and the
//     per-shard queue depth / shed policy configured via RuntimeOptions
//     bounds its call backlog exactly as in the single-tenant runtime.
//
// # Hot path
//
// Route — the per-call tenant lookup — is allocation-free for a resident
// shard: one RWMutex read lock, one map probe, one atomic LRU stamp. The
// slow path (profile load, shard construction, eviction) is serialised on a
// separate mutex so it never blocks routing to resident tenants.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adprom/internal/collector"
	"adprom/internal/detect"
	"adprom/internal/obsv"
	"adprom/internal/profile"
	"adprom/internal/runtime"
	"adprom/internal/trace"
)

// Errors returned by the routing path; match with errors.Is.
var (
	// ErrUnknownTenant reports a tenant id with no static profile and no
	// Loader entry — the caller is streaming events for a program this fleet
	// does not protect.
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	// ErrTenantQuota reports a new session refused because the tenant is at
	// its MaxSessionsPerTenant cap. Existing sessions keep working.
	ErrTenantQuota = errors.New("tenant: session quota exceeded")
	// ErrClosed reports a route on a closed router.
	ErrClosed = errors.New("tenant: router closed")
)

// Loader resolves a tenant id to its trained profile — the lazy-load seam.
// LoadTenant runs on the routing slow path (first call for a non-resident
// tenant) and must be safe for concurrent use; a Registry of per-tenant
// profile lineages is the standard implementation.
type Loader interface {
	LoadTenant(id string) (*profile.Profile, error)
}

// LoaderFunc adapts a function to Loader.
type LoaderFunc func(id string) (*profile.Profile, error)

func (f LoaderFunc) LoadTenant(id string) (*profile.Profile, error) { return f(id) }

// AlertFunc receives every alert a fleet raises, tagged with the tenant
// and the session that raised it; see runtime.AlertFunc for how alerts are
// delivered.
type AlertFunc func(tenant, session string, a detect.Alert)

// Config configures a Router. Static and Loader compose: Static is
// consulted first, then Loader; a tenant in neither is ErrUnknownTenant.
type Config struct {
	// Static maps tenant ids to pre-trained profiles, resident from first
	// use. The map is read-only after NewRouter.
	Static map[string]*profile.Profile
	// Loader lazily resolves tenants absent from Static.
	Loader Loader
	// MaxActive bounds resident shards (default 64): loading one past the
	// cap evicts the least-recently-routed shard, closing its runtime.
	// Negative disables eviction.
	MaxActive int
	// MaxSessionsPerTenant caps concurrent sessions per shard; 0 means
	// unlimited. The cap is enforced at session creation: racing creates may
	// overshoot by at most the number of concurrent ingest connections,
	// never unboundedly.
	MaxSessionsPerTenant int
	// Alert, when non-nil, is every shard's alert sink: each shard, loaded
	// at startup or lazily, gets a runtime.WithAlertFunc that tags its
	// alerts with the shard's tenant. It is applied before RuntimeOptions,
	// so a WithAlertFunc there or in PerTenant replaces it.
	Alert AlertFunc
	// RuntimeOptions apply to every shard's runtime (workers, queue depth,
	// risk-aware shedding, scorer mode, sink, decision log, ...).
	RuntimeOptions []runtime.Option
	// PerTenant overrides or extends RuntimeOptions for specific tenants —
	// the per-tenant tuning seam (a hostile tenant gets a shallow queue and
	// risk-aware shedding; a critical one gets more workers). Applied after
	// RuntimeOptions.
	PerTenant map[string][]runtime.Option
	// OnEvict, when non-nil, observes each eviction with the closed shard's
	// final stats — the hook an operator uses to persist or log a tenant's
	// parting state.
	OnEvict func(id string, final runtime.Stats)
	// Logger receives structured router events (loads, evictions, quota
	// rejections); nil disables them.
	Logger *slog.Logger
}

// Shard is one resident tenant: its runtime plus the router's bookkeeping.
type Shard struct {
	id string
	rt *runtime.Runtime

	// touched is the shard's LRU stamp: the router's logical clock value of
	// the last route that hit it. Stored with a plain atomic on every route.
	touched atomic.Uint64
}

// ID returns the tenant id the shard serves.
func (sh *Shard) ID() string { return sh.id }

// Runtime exposes the shard's underlying detection runtime (stats, swap,
// decisions). The runtime's lifetime is owned by the router: do not Close it
// directly.
func (sh *Shard) Runtime() *runtime.Runtime { return sh.rt }

// Router routes sessions to per-tenant profile shards. Create with
// NewRouter, feed via Session/Observe, stop with Close.
type Router struct {
	cfg   Config
	clock atomic.Uint64 // LRU stamp source; Add(1) per route

	mu     sync.RWMutex // guards shards map and closed flag
	shards map[string]*Shard
	closed bool

	// loadMu serialises the slow path — profile load, shard construction,
	// eviction — so concurrent first-calls to one tenant build one shard and
	// evictions never race each other. Never held while routing to a
	// resident shard.
	loadMu sync.Mutex

	// Router-level counters (shard churn and refusals; per-call counters
	// live in each shard's runtime).
	loads     atomic.Uint64
	evictions atomic.Uint64
	unknown   atomic.Uint64
	quota     atomic.Uint64
}

// NewRouter builds a router over the configured tenant universe. At least
// one of Static and Loader must be set.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Static) == 0 && cfg.Loader == nil {
		return nil, errors.New("tenant: config needs Static profiles or a Loader")
	}
	if cfg.MaxActive == 0 {
		cfg.MaxActive = 64
	}
	return &Router{cfg: cfg, shards: make(map[string]*Shard)}, nil
}

// Shard returns the resident shard for tenant id, materialising it (and
// possibly evicting another) if needed. The resident path is allocation-free.
func (r *Router) Shard(id string) (*Shard, error) {
	r.mu.RLock()
	sh := r.shards[id]
	closed := r.closed
	r.mu.RUnlock()
	if sh != nil {
		sh.touched.Store(r.clock.Add(1))
		return sh, nil
	}
	if closed {
		return nil, ErrClosed
	}
	return r.loadShard(id)
}

// loadShard is the routing slow path: resolve the profile, build the shard's
// runtime, publish it, and evict past MaxActive.
func (r *Router) loadShard(id string) (*Shard, error) {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()
	// Another loader may have won the race while we waited.
	r.mu.RLock()
	sh := r.shards[id]
	closed := r.closed
	r.mu.RUnlock()
	if sh != nil {
		sh.touched.Store(r.clock.Add(1))
		return sh, nil
	}
	if closed {
		return nil, ErrClosed
	}
	p, err := r.resolve(id)
	if err != nil {
		return nil, err
	}
	opts := make([]runtime.Option, 0, len(r.cfg.RuntimeOptions)+1)
	if alert := r.cfg.Alert; alert != nil {
		opts = append(opts, runtime.WithAlertFunc(func(session string, a detect.Alert) { alert(id, session, a) }))
	}
	opts = append(opts, r.cfg.RuntimeOptions...)
	opts = append(opts, r.cfg.PerTenant[id]...)
	sh = &Shard{id: id, rt: runtime.New(p, opts...)}
	sh.touched.Store(r.clock.Add(1))

	var victim *Shard
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		sh.rt.Close()
		return nil, ErrClosed
	}
	r.shards[id] = sh
	if r.cfg.MaxActive > 0 && len(r.shards) > r.cfg.MaxActive {
		victim = r.coldest(sh)
		if victim != nil {
			delete(r.shards, victim.id)
		}
	}
	r.mu.Unlock()

	r.loads.Add(1)
	if l := r.cfg.Logger; l != nil {
		l.Info("tenant shard loaded", "tenant", id, "resident", r.ActiveTenants())
	}
	if victim != nil {
		r.evict(victim)
	}
	return sh, nil
}

// resolve finds the profile for a tenant: static map first, then the loader.
func (r *Router) resolve(id string) (*profile.Profile, error) {
	if p := r.cfg.Static[id]; p != nil {
		return p, nil
	}
	if r.cfg.Loader == nil {
		r.unknown.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	p, err := r.cfg.Loader.LoadTenant(id)
	if err != nil {
		r.unknown.Add(1)
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownTenant, id, err)
	}
	return p, nil
}

// coldest returns the shard with the smallest LRU stamp, never the one just
// inserted. Called under r.mu.
func (r *Router) coldest(except *Shard) *Shard {
	var victim *Shard
	var min uint64
	for _, sh := range r.shards {
		if sh == except {
			continue
		}
		if t := sh.touched.Load(); victim == nil || t < min {
			victim, min = sh, t
		}
	}
	return victim
}

// evict closes a deregistered shard's runtime (flushing its sessions) and
// reports its final stats. Runs under loadMu, off the resident routing path.
func (r *Router) evict(victim *Shard) {
	victim.rt.Close()
	r.evictions.Add(1)
	final := victim.rt.Stats()
	if l := r.cfg.Logger; l != nil {
		l.Info("tenant shard evicted", "tenant", victim.id,
			"calls", final.Calls, "alerts", final.AlertTotal())
	}
	if r.cfg.OnEvict != nil {
		r.cfg.OnEvict(victim.id, final)
	}
}

// Session returns the session registered under (tenant, session), creating
// it if the tenant's quota allows. The existing-session path is
// allocation-free.
func (r *Router) Session(tenant, session string) (*runtime.Session, error) {
	sh, err := r.Shard(tenant)
	if err != nil {
		return nil, err
	}
	return r.shardSession(sh, session)
}

// shardSession resolves a session on an already-routed shard, enforcing the
// per-tenant quota.
func (r *Router) shardSession(sh *Shard, session string) (*runtime.Session, error) {
	if q := r.cfg.MaxSessionsPerTenant; q > 0 {
		if s, ok := sh.rt.LookupSession(session); ok {
			return s, nil
		}
		if sh.rt.ActiveSessions() >= int64(q) {
			r.quota.Add(1)
			if l := r.cfg.Logger; l != nil {
				l.Warn("tenant session refused by quota", "tenant", sh.id, "session", session, "quota", q)
			}
			return nil, fmt.Errorf("%w: tenant %q at %d sessions", ErrTenantQuota, sh.id, q)
		}
	}
	return sh.rt.Session(session), nil
}

// ObserveTraced routes one batch of calls to (tenant, session) with the
// wire-level trace context the ingest front door hands its sink (the router
// satisfies ingest.Sink). The router stamps the tenant onto the context, opens
// the decision trace on the shard's runtime (a no-op returning nil when the
// shard's tracing is off), records the routing stage as a span, and hands
// the trace to the session, which owns it from then on. Routing failures
// (unknown tenant, quota, closed router) happen before the trace opens, so
// nothing leaks.
func (r *Router) ObserveTraced(tc trace.Context, tenant, session string, calls []collector.Call) error {
	routeStart := time.Now()
	sh, err := r.Shard(tenant)
	if err != nil {
		return err
	}
	s, err := r.shardSession(sh, session)
	if err != nil {
		return err
	}
	tc.Tenant = tenant
	ta := sh.rt.BeginTrace(tc, session, "ingest")
	if ta != nil {
		ta.Event(trace.RootSpan, "route", routeStart,
			trace.String("tenant", tenant),
			trace.Int("resident_shards", int64(r.ActiveTenants())))
	}
	return s.ObserveBatchTraced(context.Background(), ta, calls)
}

// Traces returns up to limit retained decision traces from tenant's shard,
// newest first (nil when the tenant is not resident or its tracing is off).
func (r *Router) Traces(tenant string, limit int) []trace.Trace {
	r.mu.RLock()
	sh := r.shards[tenant]
	r.mu.RUnlock()
	if sh == nil {
		return nil
	}
	return sh.rt.Traces(limit)
}

// TraceByID searches every resident shard for the trace with the given ID —
// the forensic lookup behind /traces/{id} and adprom explain, where the
// operator holds a trace ID but not necessarily the tenant it belongs to.
func (r *Router) TraceByID(id string) (trace.Trace, bool) {
	for _, sh := range r.resident() {
		if tr, ok := sh.rt.TraceByID(id); ok {
			return tr, true
		}
	}
	return trace.Trace{}, false
}

// Flush judges (tenant, session)'s pending short window and resets it for
// the next trace. An unknown session has nothing to judge: Flush returns nil
// without registering it or charging the tenant's session quota. Nor does a
// tenant that is not resident: its sessions were flushed and closed when its
// shard was evicted, so Flush loads nothing and evicts nothing.
func (r *Router) Flush(tenant, session string) error {
	s, err := r.residentSession(tenant, session)
	if s == nil {
		return err
	}
	_, err = s.Flush()
	return err
}

// CloseSession flushes and deregisters one session, releasing its quota
// slot. Like Flush, it never loads a tenant.
func (r *Router) CloseSession(tenant, session string) error {
	s, err := r.residentSession(tenant, session)
	if s == nil {
		return err
	}
	_, err = s.Close()
	return err
}

// residentSession finds an existing session on a resident shard, nil when
// there is none. It refuses a tenant no profile source names and a closed
// router as routing does, but never loads a shard.
func (r *Router) residentSession(tenant, session string) (*runtime.Session, error) {
	r.mu.RLock()
	sh, closed := r.shards[tenant], r.closed
	r.mu.RUnlock()
	switch {
	case sh != nil:
		sh.touched.Store(r.clock.Add(1))
		s, _ := sh.rt.LookupSession(session)
		return s, nil
	case closed:
		return nil, ErrClosed
	case r.cfg.Static[tenant] == nil && r.cfg.Loader == nil:
		r.unknown.Add(1)
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	return nil, nil
}

// whileResident runs fn on tenant id's shard, if resident, while no shard
// can be loaded or evicted.
func (r *Router) whileResident(id string, fn func(*Shard)) {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()
	r.mu.RLock()
	sh := r.shards[id]
	r.mu.RUnlock()
	if sh != nil {
		fn(sh)
	}
}

// resident snapshots the resident shards, sorted by tenant id.
func (r *Router) resident() []*Shard {
	r.mu.RLock()
	shards := make([]*Shard, 0, len(r.shards))
	for _, sh := range r.shards {
		shards = append(shards, sh)
	}
	r.mu.RUnlock()
	sort.Slice(shards, func(i, j int) bool { return shards[i].id < shards[j].id })
	return shards
}

// Tenants returns the resident tenant ids, sorted.
func (r *Router) Tenants() []string {
	shards := r.resident()
	out := make([]string, len(shards))
	for i, sh := range shards {
		out[i] = sh.id
	}
	return out
}

// ActiveTenants reports how many shards are resident.
func (r *Router) ActiveTenants() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.shards)
}

// Stats is one tenant's point-in-time snapshot: the shard's full runtime
// stats under the tenant id that owns them.
type Stats struct {
	// Tenant is the shard's tenant id.
	Tenant string
	// Runtime is the shard's runtime snapshot (calls, alerts, queues,
	// latency percentiles, shed, generation, ...).
	Runtime runtime.Stats
}

func (s Stats) String() string {
	return fmt.Sprintf("tenant=%s %s", s.Tenant, s.Runtime)
}

// TenantStats snapshots one resident tenant (false when not resident).
func (r *Router) TenantStats(tenant string) (Stats, bool) {
	r.mu.RLock()
	sh := r.shards[tenant]
	r.mu.RUnlock()
	if sh == nil {
		return Stats{}, false
	}
	return Stats{Tenant: tenant, Runtime: sh.rt.Stats()}, true
}

// StatsAll snapshots every resident tenant, sorted by tenant id.
func (r *Router) StatsAll() []Stats {
	shards := r.resident()
	out := make([]Stats, len(shards))
	for i, sh := range shards {
		out[i] = Stats{Tenant: sh.id, Runtime: sh.rt.Stats()}
	}
	return out
}

// RouterStats is the router-level snapshot: shard churn and refusals.
type RouterStats struct {
	// ActiveTenants is the resident shard count; Loads counts shards
	// materialised; Evictions counts shards closed by the LRU cap.
	ActiveTenants int
	Loads         uint64
	Evictions     uint64
	// UnknownTenant counts routes refused for lack of a profile;
	// QuotaRejected counts sessions refused by MaxSessionsPerTenant.
	UnknownTenant uint64
	QuotaRejected uint64
}

// Stats snapshots the router-level counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		ActiveTenants: r.ActiveTenants(),
		Loads:         r.loads.Load(),
		Evictions:     r.evictions.Load(),
		UnknownTenant: r.unknown.Load(),
		QuotaRejected: r.quota.Load(),
	}
}

// Decisions returns up to limit recent provenance records from tenant's
// shard, newest first (nil when the tenant is not resident).
func (r *Router) Decisions(tenant string, limit int) []obsv.Decision {
	r.mu.RLock()
	sh := r.shards[tenant]
	r.mu.RUnlock()
	if sh == nil {
		return nil
	}
	return sh.rt.Decisions(limit)
}

// Ready reports nil while the router accepts routes — the fleet /readyz
// probe. Individual tenants' readiness is their shards' concern; a router
// with zero resident shards is still ready (tenants load lazily).
func (r *Router) Ready() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return ErrClosed
	}
	return nil
}

// Close drains and closes every resident shard and refuses further routes.
// Idempotent.
func (r *Router) Close() error {
	r.loadMu.Lock()
	defer r.loadMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	shards := make([]*Shard, 0, len(r.shards))
	for _, sh := range r.shards {
		shards = append(shards, sh)
	}
	r.shards = make(map[string]*Shard)
	r.mu.Unlock()
	var first error
	for _, sh := range shards {
		if err := sh.rt.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
