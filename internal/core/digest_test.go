//go:build amd64

package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adprom/internal/collector"
	"adprom/internal/dataset"
	"adprom/internal/hmm"
	"adprom/internal/profile"
)

var updateDigest = flag.Bool("update", false, "regenerate testdata/serve_profiles.sha256 from a live run")

const digestFixture = "testdata/serve_profiles.sha256"

// profileDigest hashes the float64 bits of a trained profile's Pi, A, B and
// Threshold (after its dimensions), so any change in one rounding of the
// training arithmetic changes the digest.
func profileDigest(p *profile.Profile) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	m := p.Model
	put(uint64(m.N))
	put(uint64(m.M))
	for _, v := range m.Pi {
		put(math.Float64bits(v))
	}
	for _, row := range m.A {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	for _, row := range m.B {
		for _, v := range row {
			put(math.Float64bits(v))
		}
	}
	put(math.Float64bits(p.Threshold))
	return hex.EncodeToString(h.Sum(nil))
}

// TestServeProfilesDigest trains apph, appb and apps with serve's settings
// and compares each profile's parameter digest with the committed golden, so
// a training kernel that changes a single bit of a shipped profile fails
// here at every kernel level, the pure-Go build included. The golden was
// recorded on amd64, where the compiler never fuses a multiply-add; other
// architectures may fuse and are not pinned. Run with -update to regenerate
// it after an intentional change to training.
func TestServeProfilesDigest(t *testing.T) {
	got := map[string]string{}
	var names []string
	for _, app := range dataset.CAApps() {
		traces, err := app.CollectTraces(collector.ModeADPROM)
		if err != nil {
			t.Fatalf("%s: CollectTraces: %v", app.Name, err)
		}
		p, _, err := Train(app.Prog, traces, profile.Options{
			Train:           hmm.TrainOptions{MaxIters: 12},
			MaxTrainWindows: 1500,
		})
		if err != nil {
			t.Fatalf("%s: Train: %v", app.Name, err)
		}
		got[app.Name] = profileDigest(p)
		names = append(names, app.Name)
	}
	if *updateDigest {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(digestFixture), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFixture, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (kernel %s):\n%s", digestFixture, hmm.KernelName(), b.String())
		return
	}

	f, err := os.Open(digestFixture)
	if err != nil {
		t.Fatalf("read fixture (run with -update to regenerate): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("fixture line %q: want \"<app> <sha256>\"", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(names) {
		t.Fatalf("fixture pins %d apps, trained %d", len(want), len(names))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s (kernel %s): profile digest %s, want %s", name, hmm.KernelName(), got[name], want[name])
		}
	}
}
