package tenant

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adprom/internal/lifecycle"
	"adprom/internal/profile"
)

// Registry is the on-disk profile store of a fleet: one lifecycle.Registry
// lineage per tenant, rooted at <dir>/<tenant>/. Each lineage's manifest is
// the only source of the generations a fleet serves. As the router's
// Loader, the Registry loads a tenant's newest manifest entry when the
// tenant is routed cold, and Watch swaps each resident tenant onto a newer
// entry once one is published. Reading a lineage creates nothing, so tenant
// ids that arrive over the network and name no lineage leave nothing
// behind.
type Registry struct {
	dir string

	publishMu sync.Mutex // serialises Publish's read of the newest generation and its Add

	mu     sync.Mutex
	served map[string]uint64 // the lineage generation last served to each tenant
}

// OpenRegistry opens (creating if needed) the fleet profile store rooted at
// dir.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: opening registry: %w", err)
	}
	return &Registry{dir: dir, served: make(map[string]uint64)}, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// checkTenantID refuses ids that would escape the registry root when used
// as a path element — tenant ids arrive over the network.
func checkTenantID(id string) error {
	if id == "" || id == "." || id == ".." ||
		strings.ContainsAny(id, "/\\") || strings.ContainsRune(id, 0) {
		return fmt.Errorf("tenant: invalid tenant id %q", id)
	}
	return nil
}

// lineage opens the tenant's lifecycle registry without creating it.
func (r *Registry) lineage(tenant string) (*lifecycle.Registry, error) {
	if err := checkTenantID(tenant); err != nil {
		return nil, err
	}
	return lifecycle.OpenRegistry(filepath.Join(r.dir, tenant))
}

// LoadTenant loads the tenant's newest published generation through
// LoadEntry, which verifies the file's checksum, and records it as the
// generation served to the tenant; it satisfies Loader. A tenant with no
// published generation fails with an error wrapping os.ErrNotExist (the
// router wraps it into ErrUnknownTenant).
func (r *Registry) LoadTenant(tenant string) (*profile.Profile, error) {
	reg, err := r.lineage(tenant)
	if err != nil {
		return nil, err
	}
	e, ok, err := reg.Latest()
	switch {
	case err != nil:
		return nil, err
	case !ok:
		return nil, fmt.Errorf("no published generation: %w", os.ErrNotExist)
	}
	p, err := reg.LoadEntry(e)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.served[tenant] = e.Generation
	r.mu.Unlock()
	return p, nil
}

// Publish persists a saved profile's bytes, unchanged, as tenant's next
// generation (1 for a fresh lineage), written atomically with a checksummed
// manifest entry; see lifecycle.Registry.Add.
func (r *Registry) Publish(tenant string, saved []byte, source string) (lifecycle.Entry, error) {
	reg, err := r.lineage(tenant)
	if err != nil {
		return lifecycle.Entry{}, err
	}
	r.publishMu.Lock()
	defer r.publishMu.Unlock()
	latest, _, err := reg.Latest()
	if err != nil {
		return lifecycle.Entry{}, err
	}
	return reg.Add(saved, latest.Generation+1, source)
}

// Swap reports one published generation Watch tried to put live.
type Swap struct {
	Tenant string
	// Entry is the generation's manifest entry.
	Entry lifecycle.Entry
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
// loading the entry through LoadEntry, and reports every swap and every
// refusal. A refused generation is not retried; a newer publish is. Watch
// never loads or evicts a tenant: a cold tenant picks up its newest
// generation when it is next loaded.
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
	reg, err := r.lineage(sh.id)
	if err != nil {
		return Swap{}, false
	}
	e, ok, err := reg.Latest()
	if err != nil || !ok {
		return Swap{}, false // an unreadable manifest surfaces at the tenant's next load
	}
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
	p, err := reg.LoadEntry(e)
	if err == nil {
		sw.Threshold = p.Threshold
		sw.Generation, err = sh.rt.SwapProfile(p)
	}
	sw.Err = err
	return sw, true
}
