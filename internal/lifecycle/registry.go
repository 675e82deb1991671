// Package lifecycle keeps the generations of one program's detection
// profile: a lineage. A profile is trained from the release (the program
// and the executions of its test cases, paper §IV) and published into the
// lineage as its next generation; a serving fleet puts it live from there
// (tenant.Registry.Watch for a resident tenant, LoadTenant at the tenant's
// next load). The lineage's manifest is the one record of which files are
// generations and which bytes each must hold.
package lifecycle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"adprom/internal/profile"
)

// manifestName is the registry's index file inside its directory.
const manifestName = "manifest.json"

// Entry describes one published profile generation.
type Entry struct {
	// Generation is the runtime generation number the profile was (or is to
	// be) served as.
	Generation uint64 `json:"generation"`
	// CreatedAt is when the entry was registered (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Source records provenance: "serve-startup", "operator", ...
	Source string `json:"source"`
	// Checksum is the hex CRC-32 recorded in the saved file's header (gob
	// encodings are not canonical, so it fingerprints the file, not the
	// logical profile); LoadEntry re-verifies it.
	Checksum string `json:"checksum"`
	// File is the profile file's name inside the registry directory.
	File string `json:"file"`
	// Program is the monitored program the profile models.
	Program string `json:"program"`
}

// Registry is a versioned on-disk store of profile generations: one
// gen-NNNNNN.adprof file per generation plus a manifest.json index. The
// manifest is the registry's only state: Entries and Latest read it from
// disk on every call, so a generation another process published is seen at
// once. All writes are atomic (temp file + rename), so a crash mid-publish
// never leaves a half-written profile or manifest behind. Add is serialised
// within one Registry value; it does not arbitrate between processes.
type Registry struct {
	dir string
	mu  sync.Mutex // serialises Add's read, append and write of the manifest
}

// OpenRegistry opens the registry rooted at dir and checks that its
// manifest, if any, reads. It creates nothing: the directory appears with
// the first Add, and a directory that does not exist yet reads as empty.
func OpenRegistry(dir string) (*Registry, error) {
	r := &Registry{dir: dir}
	if _, err := r.Entries(); err != nil {
		return nil, err
	}
	return r, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// Entries reads the manifest, generation-ascending. A registry nothing has
// been added to has no entries.
func (r *Registry) Entries() ([]Entry, error) {
	data, err := os.ReadFile(filepath.Join(r.dir, manifestName))
	switch {
	case os.IsNotExist(err):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("lifecycle: reading manifest: %w", err)
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("lifecycle: parsing manifest: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Generation < entries[j].Generation })
	return entries, nil
}

// Latest reads the manifest's highest-generation entry; ok is false when
// nothing has been added.
func (r *Registry) Latest() (e Entry, ok bool, err error) {
	entries, err := r.Entries()
	if err != nil || len(entries) == 0 {
		return Entry{}, false, err
	}
	return entries[len(entries)-1], true, nil
}

// Add persists a saved profile's bytes as generation gen. The bytes are
// checked as LoadEntry will check them (checksum and model shape) and
// written unchanged, so the entry's checksum is the one `adprom profile
// inspect` prints for the source file. The file and manifest are each
// written atomically, creating the registry directory if needed.
func (r *Registry) Add(saved []byte, gen uint64, source string) (Entry, error) {
	info, _, err := profile.Inspect(bytes.NewReader(saved))
	if err != nil {
		return Entry{}, fmt.Errorf("lifecycle: checking generation %d: %w", gen, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return Entry{}, fmt.Errorf("lifecycle: creating registry: %w", err)
	}
	entries, err := r.Entries()
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		Generation: gen,
		CreatedAt:  time.Now().UTC(),
		Source:     source,
		Checksum:   info.Checksum,
		File:       fmt.Sprintf("gen-%06d.adprof", gen),
		Program:    info.Program,
	}
	if err := r.writeAtomic(e.File, saved); err != nil {
		return Entry{}, err
	}
	entries = append(entries, e)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Generation < entries[j].Generation })
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("lifecycle: encoding manifest: %w", err)
	}
	if err := r.writeAtomic(manifestName, data); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// LoadEntry loads an entry's profile file and verifies its checksum against
// the manifest; a mismatch surfaces as profile.ErrCorrupt.
func (r *Registry) LoadEntry(e Entry) (*profile.Profile, error) {
	f, err := os.Open(filepath.Join(r.dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("lifecycle: opening generation %d: %w", e.Generation, err)
	}
	defer f.Close()
	info, p, err := profile.Inspect(f)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: loading generation %d: %w", e.Generation, err)
	}
	if info.Checksum != e.Checksum {
		return nil, fmt.Errorf("lifecycle: generation %d: manifest checksum %s, file records %s: %w",
			e.Generation, e.Checksum, info.Checksum, profile.ErrCorrupt)
	}
	return p, nil
}

// writeAtomic writes a file in the registry directory via temp + rename.
func (r *Registry) writeAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(r.dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("lifecycle: creating temp for %s: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("lifecycle: writing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("lifecycle: closing %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(r.dir, name)); err != nil {
		return fmt.Errorf("lifecycle: publishing %s: %w", name, err)
	}
	return nil
}
