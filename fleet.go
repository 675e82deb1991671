package adprom

// Fleet serving: one process protecting many application programs at once.
// A Fleet routes per-tenant session streams onto per-tenant profile shards
// (each an independent Runtime), loading profiles lazily from a
// TenantRegistry and evicting cold shards under an LRU cap; an IngestServer
// feeds it call events from remote collectors over TCP in NDJSON or binary
// frames. See cmd/adprom serve -tenants / -ingest-addr for the packaged
// daemon.
//
//	reg, _ := adprom.OpenTenantRegistry("/var/lib/adprom/tenants")
//	fleet, _ := adprom.NewFleet(
//		adprom.WithTenantRegistry(reg),
//		adprom.WithTenantSessionQuota(512),
//	)
//	defer fleet.Close()
//	srv, _ := adprom.NewIngestServer(fleet, adprom.IngestAuto, nil)
//	go srv.ListenAndServe("127.0.0.1:9090")
//	defer srv.Close()

import (
	"io"
	"log/slog"
	"net/http"

	"adprom/internal/ingest"
	"adprom/internal/obsv"
	"adprom/internal/runtime"
	"adprom/internal/tenant"
)

// Multi-tenant fleet serving.
type (
	// Fleet routes per-tenant sessions to per-tenant profile shards, each
	// wrapping its own Runtime; see NewFleet.
	Fleet = tenant.Router
	// TenantShard is one resident tenant inside a Fleet.
	TenantShard = tenant.Shard
	// TenantStats pairs a tenant id with its shard's runtime stats; see
	// Fleet.TenantStats and Fleet.StatsAll.
	TenantStats = tenant.Stats
	// FleetStats is the router-level counter snapshot (resident shards,
	// loads, evictions, refusals); see Fleet.Stats.
	FleetStats = tenant.RouterStats
	// TenantLoader lazily resolves tenant ids to trained profiles.
	TenantLoader = tenant.Loader
	// TenantLoaderFunc adapts a function to TenantLoader.
	TenantLoaderFunc = tenant.LoaderFunc
	// TenantRegistry is the on-disk fleet profile store: one versioned
	// lifecycle registry per tenant under a common root; see
	// OpenTenantRegistry.
	TenantRegistry = tenant.Registry
	// IngestServer accepts collector connections over TCP and streams their
	// events into a Fleet; see NewIngestServer.
	IngestServer = ingest.Server
	// IngestStats is a snapshot of an IngestServer's counters.
	IngestStats = ingest.ServerStats
	// IngestCodec selects the wire format an IngestServer accepts.
	IngestCodec = ingest.Codec
	// IngestEvent is one decoded ingest operation; exported for custom
	// senders via EncodeIngestFrame / EncodeIngestNDJSON.
	IngestEvent = ingest.Event
	// IngestKind discriminates IngestEvent operations.
	IngestKind = ingest.Kind
)

// Fleet routing errors; match with errors.Is.
var (
	// ErrUnknownTenant reports events for a tenant this fleet does not
	// protect (no static profile, no registry lineage).
	ErrUnknownTenant = tenant.ErrUnknownTenant
	// ErrTenantQuota reports a session refused by the per-tenant session
	// quota; existing sessions keep working.
	ErrTenantQuota = tenant.ErrTenantQuota
	// ErrCorruptFrame reports a malformed ingest frame or NDJSON line.
	ErrCorruptFrame = ingest.ErrFrameCorrupt
	// ErrIncompatibleFrame reports an ingest frame written by a newer wire
	// version than this build understands.
	ErrIncompatibleFrame = ingest.ErrFrameIncompatible
)

// Ingest wire formats.
const (
	// IngestAuto sniffs each connection: binary frames by their magic,
	// anything else as NDJSON.
	IngestAuto = ingest.CodecAuto
	// IngestNDJSON accepts newline-delimited JSON events only.
	IngestNDJSON = ingest.CodecNDJSON
	// IngestBinary accepts length-prefixed binary frames only.
	IngestBinary = ingest.CodecBinary

	// IngestObserve / IngestFlush / IngestClose are the IngestEvent kinds.
	IngestObserve = ingest.KindObserve
	IngestFlush   = ingest.KindFlush
	IngestClose   = ingest.KindClose
)

// FleetOption configures NewFleet.
type FleetOption func(*tenant.Config)

// WithTenants registers static tenants: each id serves the given pre-trained
// profile, resident from first use. Composes with WithTenantRegistry /
// WithTenantLoader (static entries win).
func WithTenants(profiles map[string]*Profile) FleetOption {
	return func(c *tenant.Config) {
		if c.Static == nil {
			c.Static = make(map[string]*Profile, len(profiles))
		}
		for id, p := range profiles {
			c.Static[id] = p
		}
	}
}

// WithTenant registers one static tenant.
func WithTenant(id string, p *Profile) FleetOption {
	return func(c *tenant.Config) {
		if c.Static == nil {
			c.Static = make(map[string]*Profile)
		}
		c.Static[id] = p
	}
}

// WithTenantLoader installs the lazy profile resolver consulted for tenants
// without a static profile.
func WithTenantLoader(l TenantLoader) FleetOption {
	return func(c *tenant.Config) { c.Loader = l }
}

// WithTenantRegistry is WithTenantLoader over an on-disk fleet store: each
// tenant's newest published generation loads on first route.
func WithTenantRegistry(reg *TenantRegistry) FleetOption {
	return func(c *tenant.Config) { c.Loader = reg }
}

// WithMaxActiveTenants bounds resident shards (default 64): loading one past
// the cap evicts the least-recently-routed tenant, draining its runtime.
// Negative disables eviction.
func WithMaxActiveTenants(n int) FleetOption {
	return func(c *tenant.Config) { c.MaxActive = n }
}

// WithTenantSessionQuota caps concurrent sessions per tenant (0 = unlimited);
// sessions past the cap are refused with ErrTenantQuota so one noisy
// application cannot starve the rest of the fleet.
func WithTenantSessionQuota(n int) FleetOption {
	return func(c *tenant.Config) { c.MaxSessionsPerTenant = n }
}

// WithShardOptions applies runtime options (workers, queue depth, drop/shed
// policy, scorer mode, sinks, ...) to every tenant shard. Nil options are
// ignored.
func WithShardOptions(opts ...RuntimeOption) FleetOption {
	return func(c *tenant.Config) {
		for _, o := range opts {
			if o != nil {
				c.RuntimeOptions = append(c.RuntimeOptions, o.runtimeOption())
			}
		}
	}
}

// WithTenantOverride extends WithShardOptions for one tenant — the
// per-tenant tuning seam (a risky tenant gets a shallow queue and
// ShedByRisk, a critical one more workers). Applied after the fleet-wide
// shard options.
func WithTenantOverride(id string, opts ...RuntimeOption) FleetOption {
	return func(c *tenant.Config) {
		if c.PerTenant == nil {
			c.PerTenant = make(map[string][]runtime.Option)
		}
		for _, o := range opts {
			if o != nil {
				c.PerTenant[id] = append(c.PerTenant[id], o.runtimeOption())
			}
		}
	}
}

// WithEvictionHook observes each LRU eviction with the departing tenant's
// final runtime stats.
func WithEvictionHook(fn func(id string, final RuntimeStats)) FleetOption {
	return func(c *tenant.Config) { c.OnEvict = fn }
}

// WithFleetLogger routes the fleet's structured events (loads, evictions,
// quota refusals) to l.
func WithFleetLogger(l *slog.Logger) FleetOption {
	return func(c *tenant.Config) { c.Logger = l }
}

// NewFleet builds a multi-tenant serving fleet. At least one of WithTenants
// / WithTenant / WithTenantLoader / WithTenantRegistry must be given; nil
// options are ignored. Close it when done — closing drains every resident
// shard.
func NewFleet(opts ...FleetOption) (*Fleet, error) {
	var cfg tenant.Config
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return tenant.NewRouter(cfg)
}

// OpenTenantRegistry opens (creating if needed) the on-disk fleet profile
// store rooted at dir: one versioned profile lineage per tenant, published
// atomically. Pass it to WithTenantRegistry, and publish new generations
// with TenantRegistry.Publish (or by training into the tenant's
// subdirectory, which a serving daemon's watcher hot-swaps in).
func OpenTenantRegistry(dir string) (*TenantRegistry, error) {
	return tenant.OpenRegistry(dir)
}

// ParseIngestCodec maps a flag value ("auto", "ndjson", "binary") to an
// IngestCodec.
func ParseIngestCodec(s string) (IngestCodec, error) { return ingest.ParseCodec(s) }

// NewIngestServer builds the fleet's TCP front door: collector connections
// stream call events in the given codec (IngestAuto sniffs per connection),
// demultiplexed by tenant id into the fleet. Backpressure is per connection
// — a tenant whose shard queues fill under Block stalls only the
// connections feeding it, and shed/quota refusals are counted without
// severing the stream. Start it with ListenAndServe (or Serve on an
// existing listener); Close it before the fleet.
func NewIngestServer(f *Fleet, codec IngestCodec, logger *slog.Logger) (*IngestServer, error) {
	return ingest.NewServer(ingest.ServerConfig{Sink: f, Codec: codec, Logger: logger})
}

// NewIngestHandler builds the HTTP flavour of ingest: POST bodies carrying
// event batches (Content-Type application/x-ndjson for NDJSON,
// application/octet-stream for binary frames) are decoded into the fleet.
// Mount it wherever the operator's HTTP surface lives:
//
//	mux.Handle("/ingest", adprom.NewIngestHandler(fleet, 0))
func NewIngestHandler(f *Fleet, maxBody int64) http.Handler {
	return ingest.Handler(f, maxBody)
}

// EncodeIngestFrame appends the binary wire encoding of e to dst — the
// collector-side sender for the binary codec.
func EncodeIngestFrame(dst []byte, e IngestEvent) ([]byte, error) {
	return ingest.EncodeFrame(dst, e)
}

// EncodeIngestNDJSON appends the NDJSON wire encoding of e (one line) to
// dst.
func EncodeIngestNDJSON(dst []byte, e IngestEvent) ([]byte, error) {
	return ingest.EncodeNDJSON(dst, e)
}

// NewFleetIntrospectionHandler builds the live introspection endpoint for a
// fleet: GET /metrics (every runtime family with a tenant label per resident
// shard, the router's families, and the ingest server's counters when srv is
// non-nil), /tenants (per-tenant stats as JSON), /decisions and /traces
// (?tenant=ID&limit=N; the tenant may be omitted when the fleet knows
// exactly one), /traces/{id} across every shard, /healthz and /readyz, and
// the net/http/pprof suite. Serve it on a private address.
func NewFleetIntrospectionHandler(f *Fleet, srv *IngestServer) http.Handler {
	cfg := f.Introspection()
	if srv != nil {
		cfg.Metrics = func(w io.Writer) error {
			if err := f.WritePrometheus(w); err != nil {
				return err
			}
			return srv.WritePrometheus(w)
		}
	}
	return obsv.NewHandler(cfg)
}
