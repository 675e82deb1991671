package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"adprom/internal/profile"
)

const manifestName = "manifest.json"

// Registry is the on-disk profile store of a fleet, and the one type that
// knows its layout: each tenant's lineage is <dir>/<tenant>/manifest.json
// plus one gen-NNNNNN.adprof file per published generation. The manifest,
// read from disk on every call, is the only source of the generations a
// fleet serves. As the router's Loader, the Registry loads a tenant's
// newest generation when the tenant is routed cold; Watch swaps resident
// tenants onto newer ones. Reading a lineage creates nothing, so tenant ids
// that arrive over the network and name no lineage leave nothing behind.
type Registry struct {
	dir string

	publishMu sync.Mutex // serialises Publish's read, append and write of a manifest

	mu     sync.Mutex
	served map[string]uint64 // the lineage generation last served to each tenant
}

// Entry is one manifest record: a published generation. Checksum is the hex
// CRC-32 its file's header carries, which LoadEntry re-verifies; gob
// encodings are not canonical, so it fingerprints the file, not the logical
// profile.
type Entry struct {
	Generation uint64    `json:"generation"` // from 1, in publish order
	CreatedAt  time.Time `json:"created_at"` // UTC
	Source     string    `json:"source"`     // provenance: "serve-startup", "operator", ...
	Checksum   string    `json:"checksum"`
	File       string    `json:"file"`    // the profile file's name in the lineage directory
	Program    string    `json:"program"` // the monitored program the profile models
}

// OpenRegistry opens the fleet profile store at dir, creating it if needed.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: opening registry: %w", err)
	}
	return &Registry{dir: dir, served: make(map[string]uint64)}, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// lineage returns the tenant's lineage directory, refusing ids that would
// escape the registry root when used as a path element: tenant ids arrive
// over the network.
func (r *Registry) lineage(tenant string) (string, error) {
	if tenant == "" || tenant == "." || tenant == ".." ||
		strings.ContainsAny(tenant, "/\\") || strings.ContainsRune(tenant, 0) {
		return "", fmt.Errorf("tenant: invalid tenant id %q", tenant)
	}
	return filepath.Join(r.dir, tenant), nil
}

// Entries reads the tenant's manifest, generation-ascending. A tenant
// nothing has been published for has no entries.
func (r *Registry) Entries(tenant string) ([]Entry, error) {
	dir, err := r.lineage(tenant)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("tenant: reading manifest: %w", err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("tenant: parsing manifest: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Generation < entries[j].Generation })
	return entries, nil
}

// LoadEntry loads one of the tenant's generations and verifies its file
// against the entry's checksum; a mismatch surfaces as profile.ErrCorrupt.
func (r *Registry) LoadEntry(tenant string, e Entry) (*profile.Profile, error) {
	dir, err := r.lineage(tenant)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("tenant: opening generation %d: %w", e.Generation, err)
	}
	defer f.Close()
	info, p, err := profile.Inspect(f)
	if err != nil {
		return nil, fmt.Errorf("tenant: loading generation %d: %w", e.Generation, err)
	}
	if info.Checksum != e.Checksum {
		return nil, fmt.Errorf("tenant: generation %d: manifest checksum %s, file records %s: %w",
			e.Generation, e.Checksum, info.Checksum, profile.ErrCorrupt)
	}
	return p, nil
}

// LoadTenant loads the tenant's newest published generation, verifying the
// file's checksum against the manifest, and records it as the generation
// served to the tenant; it satisfies Loader. A tenant with no published
// generation fails with an error wrapping os.ErrNotExist (the router wraps
// it into ErrUnknownTenant).
func (r *Registry) LoadTenant(tenant string) (*profile.Profile, error) {
	entries, err := r.Entries(tenant)
	switch {
	case err != nil:
		return nil, err
	case len(entries) == 0:
		return nil, fmt.Errorf("no published generation: %w", os.ErrNotExist)
	}
	e := entries[len(entries)-1]
	p, err := r.LoadEntry(tenant, e)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.served[tenant] = e.Generation
	r.mu.Unlock()
	return p, nil
}

// Publish makes a saved profile's bytes the tenant's next generation (1
// for a fresh lineage). The bytes are checked as LoadEntry will check them
// (checksum and model shape) and written unchanged, so the entry's checksum
// is the one `adprom profile inspect` prints for the source file. The file,
// then the manifest, is written by writeAtomic, so a publish killed midway
// leaves only dot-prefixed temp files, which nothing reads. Publishes
// through one Registry are serialised; nothing arbitrates between
// processes.
func (r *Registry) Publish(tenant string, saved []byte, source string) (Entry, error) {
	dir, err := r.lineage(tenant)
	if err != nil {
		return Entry{}, err
	}
	info, _, err := profile.Inspect(bytes.NewReader(saved))
	if err != nil {
		return Entry{}, fmt.Errorf("tenant %s: checking the profile: %w", tenant, err)
	}
	r.publishMu.Lock()
	defer r.publishMu.Unlock()
	entries, err := r.Entries(tenant)
	if err != nil {
		return Entry{}, err
	}
	gen := uint64(1)
	if n := len(entries); n > 0 {
		gen = entries[n-1].Generation + 1
	}
	e := Entry{
		Generation: gen,
		CreatedAt:  time.Now().UTC(),
		Source:     source,
		Checksum:   info.Checksum,
		File:       fmt.Sprintf("gen-%06d.adprof", gen),
		Program:    info.Program,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Entry{}, fmt.Errorf("tenant %s: creating lineage: %w", tenant, err)
	}
	if err := writeAtomic(dir, e.File, saved); err != nil {
		return Entry{}, err
	}
	data, err := json.MarshalIndent(append(entries, e), "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("tenant %s: encoding manifest: %w", tenant, err)
	}
	if err := writeAtomic(dir, manifestName, data); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// writeAtomic writes dir/name, mode 0644, through a synced temp file and
// a rename. CreateTemp makes the file 0600, but a daemon running as another
// user than the publisher must still read the lineage.
func writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("tenant: creating temp for %s: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		return fmt.Errorf("tenant: writing %s: %w", name, err)
	}
	return nil
}

// Swap reports one published generation Watch tried to put live.
type Swap struct {
	Tenant string
	Entry  Entry
	// Generation is the shard runtime's generation once Entry went live,
	// and Threshold the live profile's detection threshold.
	Generation uint64
	Threshold  float64
	// Err is why the generation was refused (its file fails the manifest
	// checksum, say); nil when it went live.
	Err error
}

// Watch polls every interval (2s when not positive) until ctx ends. It
// swaps each tenant resident on router onto its lineage's newest manifest
// entry once that is newer than the generation last served to the tenant,
// verifying the entry's file as LoadTenant does, and reports every swap
// and every refusal. A refused generation is not retried; a newer publish
// is. Watch never loads or evicts a tenant: a cold tenant picks up its
// newest generation when it is next loaded.
func (r *Registry) Watch(ctx context.Context, interval time.Duration, router *Router, report func(Swap)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, id := range router.Tenants() {
			var sw Swap
			var tried bool
			router.whileResident(id, func(sh *Shard) { sw, tried = r.refresh(sh) })
			if tried {
				report(sw)
			}
		}
	}
}

// refresh swaps sh onto its lineage's newest generation when that is newer
// than the one last served to the tenant. It runs while the router can
// neither load nor evict, so the record it keeps is the shard's own.
func (r *Registry) refresh(sh *Shard) (Swap, bool) {
	entries, err := r.Entries(sh.id)
	if err != nil || len(entries) == 0 {
		return Swap{}, false // an unreadable manifest surfaces at the tenant's next load
	}
	e := entries[len(entries)-1]
	r.mu.Lock()
	newer := e.Generation > r.served[sh.id]
	if newer {
		r.served[sh.id] = e.Generation
	}
	r.mu.Unlock()
	if !newer {
		return Swap{}, false
	}
	sw := Swap{Tenant: sh.id, Entry: e}
	p, err := r.LoadEntry(sh.id, e)
	if err == nil {
		sw.Threshold = p.Threshold
		sw.Generation, err = sh.rt.SwapProfile(p)
	}
	sw.Err = err
	return sw, true
}
