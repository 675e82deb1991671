package tenant

import (
	"errors"
	"os"
	"path/filepath"
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

func TestRegistryRoundTrip(t *testing.T) {
	p, _ := trainAppH(t)
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := reg.Entries("apph"); len(ents) != 0 || err != nil {
		t.Fatalf("fresh registry: entries %+v, err %v", ents, err)
	}
	e1, err := reg.Publish("apph", encode(t, p), "initial")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg.Publish("apph", encode(t, p), "release-2")
	if err != nil {
		t.Fatal(err)
	}
	// Gob encodings are not canonical, so the two entries' checksums need not
	// match each other — each must only match its own file, which LoadEntry
	// verifies below.
	if e1.Generation != 1 || e2.Generation != 2 || e1.Checksum == "" || e2.Checksum == "" {
		t.Fatalf("entries: %+v / %+v", e1, e2)
	}
	if e1.Program != p.Program {
		t.Fatalf("entry program %q, want %q", e1.Program, p.Program)
	}

	// Reopen: the manifest survives the process, entries ascend with their
	// programs and checksums, and each persisted profile loads back with a
	// matching checksum.
	reg2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := reg2.Entries("apph")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Generation != 1 || ents[1].Generation != 2 {
		t.Fatalf("reopened entries: %+v", ents)
	}
	for i, want := range []Entry{e1, e2} {
		if ents[i].Program != want.Program || ents[i].Checksum != want.Checksum {
			t.Fatalf("reopened generation %d: %+v, published as %+v", want.Generation, ents[i], want)
		}
	}
	for _, e := range ents {
		loaded, err := reg2.LoadEntry("apph", e)
		if err != nil {
			t.Fatalf("generation %d: %v", e.Generation, err)
		}
		if loaded.Program != p.Program || loaded.Threshold != p.Threshold {
			t.Fatalf("generation %d does not match the persisted profile", e.Generation)
		}
	}
}

func TestRegistryLoadEntryDetectsTampering(t *testing.T) {
	p, _ := trainAppH(t)
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Publish("apph", encode(t, p), "initial")
	if err != nil {
		t.Fatal(err)
	}
	// Swap the entry's file for a different profile: the payload is valid,
	// but the manifest checksum no longer matches.
	other := withThreshold(t, p, p.Threshold-1)
	if err := os.WriteFile(filepath.Join(dir, "apph", e.File), encode(t, other), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadEntry("apph", e); !errors.Is(err, profile.ErrCorrupt) {
		t.Fatalf("LoadEntry on a swapped file: %v, want ErrCorrupt", err)
	}
}

// TestPublishWritesReadableFiles: a daemon may run as another user than
// the operator who publishes, so a generation's file and the manifest are
// both written mode 0644, not the 0600 a temp file is created with.
func TestPublishWritesReadableFiles(t *testing.T) {
	p, _ := trainAppH(t)
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Publish("apph", encode(t, p), "test")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{e.File, "manifest.json"} {
		fi, err := os.Stat(filepath.Join(dir, "apph", name))
		if err != nil {
			t.Fatal(err)
		}
		if mode := fi.Mode().Perm(); mode != 0o644 {
			t.Errorf("%s has mode %#o after Publish, want 0644", name, mode)
		}
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
