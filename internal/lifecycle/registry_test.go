package lifecycle

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/dataset"
	"adprom/internal/hmm"
	"adprom/internal/profile"
)

var appHOnce struct {
	sync.Once
	p      *profile.Profile
	traces []collector.Trace
	err    error
}

func trainAppH(t *testing.T) (*profile.Profile, []collector.Trace) {
	t.Helper()
	appHOnce.Do(func() {
		app := dataset.AppH()
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			appHOnce.err = err
			return
		}
		p, _, err := core.Train(app.Prog, traces, profile.Options{
			Train: hmm.TrainOptions{MaxIters: 6},
		})
		appHOnce.p, appHOnce.traces, appHOnce.err = p, traces, err
	})
	if appHOnce.err != nil {
		t.Fatal(appHOnce.err)
	}
	return appHOnce.p, appHOnce.traces
}

// encode returns p's saved bytes, what Add takes.
func encode(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRegistryRoundTrip(t *testing.T) {
	p, _ := trainAppH(t)
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := reg.Latest(); ok || err != nil {
		t.Fatalf("fresh registry: latest entry %v, err %v", ok, err)
	}
	e1, err := reg.Add(encode(t, p), 1, "initial")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg.Add(encode(t, p), 2, "drift-retrain")
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

	// Reopen: the manifest survives the process, entries ascend, and the
	// persisted profile loads back with a matching checksum.
	reg2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := reg2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Generation != 1 || ents[1].Generation != 2 {
		t.Fatalf("reopened entries: %+v", ents)
	}
	latest, ok, err := reg2.Latest()
	if !ok || err != nil || latest.Generation != 2 {
		t.Fatalf("latest: %+v, %v, %v", latest, ok, err)
	}
	for _, e := range ents {
		loaded, err := reg2.LoadEntry(e)
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
	e, err := reg.Add(encode(t, p), 1, "initial")
	if err != nil {
		t.Fatal(err)
	}
	// Swap the entry's file for a different profile: the payload is valid,
	// but the manifest checksum no longer matches. (Profiles are not
	// copyable, so clone via a save/load round trip.)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := profile.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	other.Threshold = p.Threshold - 1
	f, err := os.Create(filepath.Join(dir, e.File))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := reg.LoadEntry(e); !errors.Is(err, profile.ErrCorrupt) {
		t.Fatalf("LoadEntry on a swapped file: %v, want ErrCorrupt", err)
	}
}
