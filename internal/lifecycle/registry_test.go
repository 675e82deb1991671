package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

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

func TestRegistryRoundTrip(t *testing.T) {
	p, _ := trainAppH(t)
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Latest(); ok {
		t.Fatal("fresh registry has a latest entry")
	}
	e1, err := reg.Add(p, 1, "initial")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg.Add(p, 2, "drift-retrain")
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
	ents := reg2.Entries()
	if len(ents) != 2 || ents[0].Generation != 1 || ents[1].Generation != 2 {
		t.Fatalf("reopened entries: %+v", ents)
	}
	latest, ok := reg2.Latest()
	if !ok || latest.Generation != 2 {
		t.Fatalf("latest: %+v, %v", latest, ok)
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
	e, err := reg.Add(p, 1, "initial")
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

func TestWatchDirReportsNewProfiles(t *testing.T) {
	p, _ := trainAppH(t)
	dir := t.TempDir()

	// A file present before the watch starts is "seen" and must not fire.
	writeProfile := func(name string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	pre := writeProfile("pre-existing" + ProfileSuffix)

	if path, lp, err := LatestProfile(dir); err != nil || path != pre || lp.Program != p.Program {
		t.Fatalf("LatestProfile: %s, %v (want %s)", path, err, pre)
	}

	type hit struct {
		path string
		ok   bool
	}
	hits := make(chan hit, 8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		WatchDir(ctx, dir, 10*time.Millisecond, func(path string, lp *profile.Profile, err error) {
			hits <- hit{path: path, ok: err == nil && lp != nil}
		})
	}()
	// Give the watcher time to finish its initial already-seen scan; files
	// written before that scan would be treated as pre-existing.
	time.Sleep(200 * time.Millisecond)

	fresh := writeProfile("gen-000002" + ProfileSuffix)
	// Junk with the right suffix must be reported as an error, not a panic.
	junk := filepath.Join(dir, "junk"+ProfileSuffix)
	if err := os.WriteFile(junk, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Dot-prefixed temp files are invisible to the watcher.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"+ProfileSuffix), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	got := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for len(got) < 2 {
		select {
		case h := <-hits:
			if h.path == pre {
				t.Fatal("pre-existing file reported by the watcher")
			}
			got[h.path] = h.ok
		case <-deadline:
			t.Fatalf("watcher reported %d/2 files", len(got))
		}
	}
	if !got[fresh] {
		t.Errorf("fresh profile not loaded: %+v", got)
	}
	if ok, seen := got[junk]; !seen || ok {
		t.Errorf("junk file: seen=%v ok=%v, want seen with error", seen, ok)
	}
	cancel()
	<-done
}
