package tenant

import (
	"errors"
	"testing"

	"adprom/internal/profile"
	"adprom/internal/trace"
)

func TestRegistryPublishAndLoad(t *testing.T) {
	p, _ := trainAppH(t)
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := reg.LoadTenant("apph"); err == nil {
		t.Fatal("empty lineage loaded without error")
	}
	e1, err := reg.Publish("apph", encode(t, p), "test")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Generation != 1 {
		t.Fatalf("first generation = %d, want 1", e1.Generation)
	}
	e2, err := reg.Publish("apph", encode(t, p), "test")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Generation != 2 {
		t.Fatalf("second generation = %d, want 2", e2.Generation)
	}
	loaded, err := reg.LoadTenant("apph")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Program != p.Program || loaded.Threshold != p.Threshold {
		t.Fatalf("loaded profile mismatch: %s/%v", loaded.Program, loaded.Threshold)
	}

	if e, err := reg.Publish("other", encode(t, p), "test"); err != nil || e.Generation != 1 {
		t.Fatalf("another tenant's first publish: generation %d, %v; want its own lineage at 1", e.Generation, err)
	}
}

// TestRegistryRejectsHostileTenantIDs holds the path-traversal guard:
// tenant ids arrive over the network and must never escape the store root.
func TestRegistryRejectsHostileTenantIDs(t *testing.T) {
	p, _ := trainAppH(t)
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", ".", "..", "../etc", "a/b", `a\b`, "x\x00y"} {
		if _, err := reg.Publish(id, encode(t, p), "test"); err == nil {
			t.Errorf("hostile id %q accepted by Publish", id)
		}
		if _, err := reg.LoadTenant(id); err == nil {
			t.Errorf("hostile id %q accepted by LoadTenant", id)
		}
	}
}

// TestRouterLoadsFromRegistry wires the registry in as the router's Loader:
// published tenants route, unpublished ones are unknown.
func TestRouterLoadsFromRegistry(t *testing.T) {
	p, traces := trainAppH(t)
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish("apph", encode(t, p), "test"); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Config{Loader: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ObserveTraced(trace.Context{}, "apph", "s1", traces[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.ObserveTraced(trace.Context{}, "ghost", "s1", traces[0]); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unpublished tenant: %v, want ErrUnknownTenant", err)
	}
	// Flush is a barrier: it completes only after the session's queued calls.
	if err := r.Flush("apph", "s1"); err != nil {
		t.Fatal(err)
	}
	st, ok := r.TenantStats("apph")
	if !ok || st.Runtime.Calls != uint64(len(traces[0])) {
		t.Fatalf("registry-loaded tenant stats: %+v resident=%v", st, ok)
	}
}

func TestLoaderFunc(t *testing.T) {
	p, _ := trainAppH(t)
	var gotID string
	l := LoaderFunc(func(id string) (*profile.Profile, error) {
		gotID = id
		return p, nil
	})
	got, err := l.LoadTenant("x")
	if err != nil || got != p || gotID != "x" {
		t.Fatalf("LoaderFunc: %v %v %q", got, err, gotID)
	}
}
