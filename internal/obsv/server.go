package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"adprom/internal/trace"
)

// ServerConfig wires the introspection handler to a live runtime or fleet
// without obsv importing either: every hook is a plain function. Nil hooks
// disable the corresponding endpoint (it answers 404).
type ServerConfig struct {
	// Metrics renders the Prometheus exposition for /metrics.
	Metrics func(w io.Writer) error
	// Decisions returns the most recent provenance records (newest first) for
	// /decisions; limit ≤ 0 means everything retained. tenant is the
	// ?tenant= query parameter ("" when absent): a Runtime ignores it, a
	// fleet uses it to pick a shard. An error (an ambiguous or missing
	// tenant) answers 400 with its text.
	Decisions func(tenant string, limit int) ([]Decision, error)
	// Traces returns the most recent retained decision traces (newest first)
	// for /traces, with the same tenant and limit semantics as Decisions.
	Traces func(tenant string, limit int) ([]trace.Trace, error)
	// TraceByID resolves one decision trace for /traces/{id}.
	TraceByID func(id string) (trace.Trace, bool)
	// Tenants returns the per-tenant listing rendered as JSON on /tenants.
	Tenants func() any
	// Healthz reports process liveness: nil while the serving process is able
	// to make progress at all.
	Healthz func() error
	// Readyz reports serving readiness: nil while the runtime accepts ingest
	// (workers supervised, a profile generation published, not draining).
	Readyz func() error
}

// NewHandler builds the introspection endpoint: /metrics (Prometheus text
// format), /decisions (recent provenance as JSON), /traces and /traces/{id}
// (retained decision traces as JSON — the forensic feed behind adprom
// explain), /tenants (a fleet's per-tenant stats as JSON), /healthz and
// /readyz (200 ok / 503 with the cause), and the net/http/pprof suite under
// /debug/pprof/. /decisions and /traces take ?limit=N (default 100) and
// ?tenant=ID. GET / lists the wired routes.
func NewHandler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	var routes []string
	handle := func(route, pattern string, h http.HandlerFunc) {
		routes = append(routes, route)
		mux.HandleFunc(pattern, h)
	}
	if cfg.Metrics != nil {
		handle("/metrics", "/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			// On a write error the headers are gone; all we can do is abort
			// the body.
			_ = cfg.Metrics(w)
		})
	}
	if cfg.Decisions != nil {
		handle("/decisions?tenant=ID&limit=N", "/decisions", listing(func(tenant string, limit int) (any, error) {
			ds, err := cfg.Decisions(tenant, limit)
			if ds == nil {
				ds = []Decision{}
			}
			return ds, err
		}))
	}
	if cfg.Traces != nil {
		handle("/traces?tenant=ID&limit=N", "/traces", listing(func(tenant string, limit int) (any, error) {
			trs, err := cfg.Traces(tenant, limit)
			if trs == nil {
				trs = []trace.Trace{}
			}
			return trs, err
		}))
	}
	if cfg.TraceByID != nil {
		handle("/traces/{id}", "/traces/", func(w http.ResponseWriter, r *http.Request) {
			id := strings.TrimPrefix(r.URL.Path, "/traces/")
			if id == "" || strings.ContainsRune(id, '/') {
				http.NotFound(w, r)
				return
			}
			tr, ok := cfg.TraceByID(id)
			if !ok {
				http.Error(w, "no such trace: "+id, http.StatusNotFound)
				return
			}
			writeJSON(w, tr)
		})
	}
	if cfg.Tenants != nil {
		handle("/tenants", "/tenants", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, cfg.Tenants())
		})
	}
	probe := func(check func() error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if err := check(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "unavailable: %v\n", err)
				return
			}
			fmt.Fprintln(w, "ok")
		}
	}
	if cfg.Healthz != nil {
		handle("/healthz", "/healthz", probe(cfg.Healthz))
	}
	if cfg.Readyz != nil {
		handle("/readyz", "/readyz", probe(cfg.Readyz))
	}
	routes = append(routes, "/debug/pprof/")
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "adprom introspection endpoints:")
		for _, route := range routes {
			fmt.Fprintln(w, "  "+route)
		}
	})
	return mux
}

// listing serves a tenant-scoped, limited JSON listing: ?limit=N (default
// 100, ≤ 0 for everything retained) and ?tenant=ID are parsed here, and a
// parse failure or a hook error answers 400.
func listing(fetch func(tenant string, limit int) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		limit := 100
		if s := q.Get("limit"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad limit: "+err.Error(), http.StatusBadRequest)
				return
			}
			limit = n
		}
		v, err := fetch(q.Get("tenant"), limit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, v)
	}
}

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
