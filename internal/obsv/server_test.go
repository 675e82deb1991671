package obsv

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testServer(t *testing.T, cfg ServerConfig) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(cfg))
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) (int, string, http.Header) {
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
	return resp.StatusCode, string(body), resp.Header
}

func TestHandlerMetrics(t *testing.T) {
	srv := testServer(t, ServerConfig{
		Metrics: func(w io.Writer) error {
			_, err := fmt.Fprintln(w, "# HELP adprom_calls_total x\n# TYPE adprom_calls_total counter\nadprom_calls_total 7")
			return err
		},
	})
	code, body, hdr := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text format", ct)
	}
	if !strings.Contains(body, "adprom_calls_total 7") {
		t.Errorf("body missing metric: %q", body)
	}
}

func TestHandlerDecisions(t *testing.T) {
	recorded := []Decision{
		{Session: "s2", Seq: 9, Flagged: true, Flag: "DL", Label: "write", Caller: "main"},
		{Session: "s1", Seq: 4, Flag: "Normal"},
	}
	srv := testServer(t, ServerConfig{
		Decisions: func(tenant string, limit int) ([]Decision, error) {
			if tenant == "ghost" {
				return nil, errors.New("tenant parameter names no tenant")
			}
			if limit > 0 && limit < len(recorded) {
				return recorded[:limit], nil
			}
			return recorded, nil
		},
	})

	code, body, hdr := get(t, srv.URL+"/decisions")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q, want application/json", ct)
	}
	var got []Decision
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("body is not JSON: %v\n%s", err, body)
	}
	if len(got) != 2 || got[0].Session != "s2" || !got[0].Flagged || got[0].Caller != "main" {
		t.Errorf("decoded %+v, want the recorded decisions newest-first", got)
	}

	if code, body, _ = get(t, srv.URL+"/decisions?limit=1"); code != http.StatusOK {
		t.Fatalf("limit=1 status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil || len(got) != 1 {
		t.Errorf("limit=1 returned %d decisions (err %v), want 1", len(got), err)
	}

	if code, _, _ = get(t, srv.URL+"/decisions?limit=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad limit: status %d, want 400", code)
	}
	// The ?tenant= parameter reaches the hook, and a hook error is a 400
	// carrying its text.
	if code, body, _ = get(t, srv.URL+"/decisions?tenant=ghost"); code != http.StatusBadRequest || !strings.Contains(body, "names no tenant") {
		t.Errorf("hook error: %d %q, want 400 with the error", code, body)
	}
}

func TestHandlerDecisionsEmptyIsJSONArray(t *testing.T) {
	srv := testServer(t, ServerConfig{Decisions: func(string, int) ([]Decision, error) { return nil, nil }})
	_, body, _ := get(t, srv.URL+"/decisions")
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("empty decision log rendered %q, want []", body)
	}
}

func TestHandlerProbes(t *testing.T) {
	healthy := true
	srv := testServer(t, ServerConfig{
		Healthz: func() error { return nil },
		Readyz: func() error {
			if !healthy {
				return errors.New("no profile generation published")
			}
			return nil
		},
	})
	if code, body, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _, _ := get(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz while ready = %d, want 200", code)
	}
	healthy = false
	code, body, _ := get(t, srv.URL+"/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while unready = %d, want 503", code)
	}
	if !strings.Contains(body, "no profile generation published") {
		t.Errorf("/readyz body %q must carry the cause", body)
	}
}

func TestHandlerRouteIndexAndPprof(t *testing.T) {
	srv := testServer(t, ServerConfig{})
	code, body, _ := get(t, srv.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "/debug/pprof/") {
		t.Errorf("route index = %d %q", code, body)
	}
	if code, _, _ := get(t, srv.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
	if code, body, _ := get(t, srv.URL+"/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline = %d (len %d), want 200 with a body", code, len(body))
	}
	// Endpoints without a wired hook answer 404 rather than panicking.
	if code, _, _ := get(t, srv.URL+"/metrics"); code != http.StatusNotFound {
		t.Errorf("unwired /metrics = %d, want 404", code)
	}
}
