package adprom

// Fleet serving: one process protecting many application programs at once.
// A Fleet routes per-tenant session streams onto per-tenant profile shards
// (each an independent Runtime); an IngestServer feeds it call events from
// remote collectors over TCP in NDJSON or binary frames. cmd/adprom serve
// builds both from internal/tenant and internal/ingest; the facade keeps
// the collector-side encoders and the fleet's introspection endpoint.

import (
	"io"
	"net/http"

	"adprom/internal/ingest"
	"adprom/internal/obsv"
	"adprom/internal/tenant"
)

// Multi-tenant fleet serving.
type (
	// Fleet routes per-tenant sessions to per-tenant profile shards, each
	// wrapping its own Runtime.
	Fleet = tenant.Router
	// IngestServer accepts collector connections over TCP and streams their
	// events into a Fleet.
	IngestServer = ingest.Server
	// IngestEvent is one decoded ingest operation; exported for custom
	// senders via EncodeIngestFrame / EncodeIngestNDJSON.
	IngestEvent = ingest.Event
)

// IngestObserve / IngestFlush / IngestClose are the IngestEvent kinds.
const (
	IngestObserve = ingest.KindObserve
	IngestFlush   = ingest.KindFlush
	IngestClose   = ingest.KindClose
)

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
