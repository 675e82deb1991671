package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"adprom/internal/profile"
	"adprom/internal/tenant"
)

func TestLookupApp(t *testing.T) {
	for _, name := range []string{"apph", "appb", "apps", "app1", "app2", "app3", "app4"} {
		app, err := lookupApp(name)
		if err != nil || app.Name != name {
			t.Errorf("lookupApp(%q) = %v, %v", name, app, err)
		}
	}
	if _, err := lookupApp("nope"); err == nil {
		t.Error("lookupApp accepted unknown app")
	}
}

func TestCmdAnalyzeRuns(t *testing.T) {
	if err := cmdAnalyze([]string{"-app", "apph"}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if err := cmdAnalyze([]string{"-app", "ghost"}); err == nil {
		t.Fatal("analyze accepted unknown app")
	}
}

func TestCmdExperimentRejectsUnknown(t *testing.T) {
	if err := cmdExperiment([]string{"tableX"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := cmdExperiment(nil); err == nil {
		t.Fatal("missing experiment id accepted")
	}
}

// trainTestProfile trains apph once and saves it under dir, returning the
// file path.
func trainTestProfile(t *testing.T, dir string) string {
	t.Helper()
	app, err := lookupApp("apph")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trainApp(app)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "gen-000001.adprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdProfileInspect(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile")
	}
	path := trainTestProfile(t, t.TempDir())
	if err := cmdProfile([]string{"inspect", path}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if err := cmdProfile([]string{"inspect"}); err == nil {
		t.Fatal("inspect without files accepted")
	}
	if err := cmdProfile(nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.adprof")
	if err := os.WriteFile(bad, []byte("ADPROFgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdProfile([]string{"inspect", bad}); !errors.Is(err, profile.ErrCorrupt) {
		t.Fatalf("inspect on garbage: %v, want ErrCorrupt", err)
	}
}

// TestCmdServeProfileDir serves the replayed app from a profile store: a
// trained profile is published into apph's lineage with `adprom profile
// publish`, and `serve -tenant-dir` serves that generation instead of
// training and publishing its own. -profile beside -tenant-dir is refused,
// since both would name the tenant's profile.
func TestCmdServeProfileDir(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile and replays streams")
	}
	dir := t.TempDir()
	path := trainTestProfile(t, t.TempDir())
	if err := cmdProfile([]string{"publish", "-tenant-dir", dir, "-tenant", "apph", path}); err != nil {
		t.Fatalf("profile publish: %v", err)
	}
	err := cmdServe([]string{
		"-app", "apph", "-tenant-dir", dir,
		"-streams", "2", "-repeat", "1", "-workers", "1",
	})
	if err != nil {
		t.Fatalf("serve -tenant-dir: %v", err)
	}
	reg, err := tenant.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ents, err := reg.Entries("apph"); err != nil || len(ents) != 1 || ents[0].Source != "operator" {
		t.Fatalf("apph lineage after serve: %+v, %v; want only the operator's generation", ents, err)
	}
	if _, err := parseServe([]string{"-app", "apph", "-profile", path, "-tenant-dir", dir}); err == nil {
		t.Error("serve accepted -profile together with -tenant-dir")
	}
}

// TestProfilePublishKeepsFileBytes publishes one saved file to two
// tenants: each lineage holds the file byte for byte, and each manifest
// records the CRC-32 `profile inspect` prints for it, so an operator can
// match a live generation to the file they checked.
func TestProfilePublishKeepsFileBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile")
	}
	dir := t.TempDir()
	path := trainTestProfile(t, t.TempDir())
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, _, err := profile.Inspect(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := cmdProfile([]string{"publish", "-tenant-dir", dir, "-tenant", id, path}); err != nil {
			t.Fatalf("publishing for %s: %v", id, err)
		}
		ents, err := reg.Entries(id)
		if err != nil || len(ents) == 0 || ents[len(ents)-1].Checksum != info.Checksum {
			t.Fatalf("tenant %s manifest %+v (%v), want its newest entry at crc32 %s", id, ents, err, info.Checksum)
		}
		e := ents[len(ents)-1]
		got, err := os.ReadFile(filepath.Join(dir, id, e.File))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("tenant %s %s differs from the published file", id, e.File)
		}
	}
}

// TestProfileTrailingBytesRefused: a saved profile with bytes appended is
// corrupt to inspect and to publish alike, and publish names the file.
func TestProfileTrailingBytesRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile")
	}
	path := trainTestProfile(t, t.TempDir())
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("trailing")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdProfile([]string{"inspect", path}); !errors.Is(err, profile.ErrCorrupt) {
		t.Fatalf("inspect with 8 trailing bytes: %v, want ErrCorrupt", err)
	}
	dir := t.TempDir()
	err = cmdProfile([]string{"publish", "-tenant-dir", dir, "-tenant", "apph", path})
	if !errors.Is(err, profile.ErrCorrupt) || !strings.Contains(err.Error(), path) {
		t.Fatalf("publish with 8 trailing bytes: %v, want ErrCorrupt naming %s", err, path)
	}
	if _, err := os.Stat(filepath.Join(dir, "apph")); !os.IsNotExist(err) {
		t.Fatalf("a refused publish left a lineage behind: %v", err)
	}
}

// TestCmdServeHTTP boots serve with the introspection endpoint, waits for
// the post-replay linger, probes every route, and shuts the server down with
// the same SIGTERM an operator (or the CI smoke step) would send.
func TestCmdServeHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile and replays streams")
	}
	// Pick a free port: listen, remember, release. The tiny window before
	// serve re-binds is acceptable in CI.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-app", "apph", "-streams", "2", "-repeat", "1", "-workers", "1",
			"-http", addr, "-log",
		})
	}()

	base := "http://" + addr
	var resp *http.Response
	for i := 0; i < 200; i++ { // training dominates startup; poll generously
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before the endpoint came up: %v", err)
		case <-time.After(250 * time.Millisecond):
		}
	}
	if err != nil {
		t.Fatalf("endpoint never came up on %s: %v", addr, err)
	}

	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}
	if code, body := fetch("/metrics"); code != 200 || !strings.Contains(body, "adprom_calls_total") {
		t.Errorf("/metrics = %d, body %.120s", code, body)
	}
	if code, _ := fetch("/readyz"); code != 200 {
		t.Errorf("/readyz = %d, want 200 while serving", code)
	}
	if code, body := fetch("/decisions?limit=5"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Errorf("/decisions = %d, body %.120s", code, body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

func TestCmdExperimentTable8(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the SIR corpus")
	}
	if err := cmdExperiment([]string{"table8"}); err != nil {
		t.Fatalf("table8: %v", err)
	}
}
