package main

import (
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"adprom/internal/collector"
	"adprom/internal/core"
	"adprom/internal/detect"
	"adprom/internal/profile"
)

// TestServeReplayMatchesMonitor drives serve's built-in replay client end to
// end: `serve -app appb -streams 4 -repeat 2` streams appb's traces over
// loopback TCP into a one-tenant fleet through the real codec, at -batch 64,
// at -batch 0 (one event per call), and as NDJSON. The shard must judge
// exactly the calls sent, ingest must count no decode error and no sink
// reject, and every session must raise the alerts a sequential Monitor
// raises on the same traces with a flush after each trace. The served
// profile's threshold is raised so that healthy traffic alerts and the
// comparison has alerts to compare.
func TestServeReplayMatchesMonitor(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile and replays streams")
	}
	const streams, repeat = 4, 2
	app, err := lookupApp("appb")
	if err != nil {
		t.Fatal(err)
	}
	p, err := trainApp(app)
	if err != nil {
		t.Fatal(err)
	}
	p.Threshold /= 4
	path := filepath.Join(t.TempDir(), "appb.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	served, err := profile.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	traces, err := app.CollectTraces(collector.ModeADPROM)
	if err != nil {
		t.Fatal(err)
	}
	var wantCalls uint64
	want := map[string][]detect.Alert{}
	for i := 0; i < streams; i++ {
		m := core.NewMonitor(served, nil)
		for pass := 0; pass < repeat; pass++ {
			tr := traces[(i+pass)%len(traces)]
			wantCalls += uint64(len(tr))
			m.ObserveTrace(tr)
		}
		want[streamSession(i)] = m.Alerts()
	}
	if len(want[streamSession(0)]) == 0 {
		t.Fatal("the raised threshold flags nothing; the alert comparison would be vacuous")
	}
	total := 0
	for _, as := range want {
		total += len(as)
	}
	t.Logf("comparing %d Monitor alerts over %d calls per transport", total, wantCalls)

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"batch64", []string{"-batch", "64"}},
		{"per-call", []string{"-batch", "0"}},
		{"ndjson", []string{"-ingest-codec", "ndjson"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := parseServe(append([]string{
				"-app", "appb", "-profile", path, "-workers", "2",
				"-streams", "4", "-repeat", "2",
			}, tc.args...))
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := map[string][]detect.Alert{}
			sc.alert = func(session string, a detect.Alert) {
				mu.Lock()
				got[session] = append(got[session], a)
				mu.Unlock()
			}
			d, err := startDaemon(sc)
			if err != nil {
				t.Fatal(err)
			}
			defer d.close()
			if err := d.replay(); err != nil {
				t.Fatalf("replay: %v", err)
			}
			// The replay returns once the server has closed every connection,
			// so every call sent has been judged.
			st, ok := d.router.TenantStats("appb")
			if !ok {
				t.Fatal("appb shard not resident after the replay")
			}
			if st.Runtime.Calls != wantCalls {
				t.Errorf("shard judged %d calls, replay sent %d", st.Runtime.Calls, wantCalls)
			}
			if in := d.ingest.Stats(); in.DecodeErrors != 0 || in.SinkRejects != 0 || in.Calls != wantCalls {
				t.Errorf("ingest stats %s: want 0 decode errors, 0 sink rejects, %d calls", in, wantCalls)
			}
			if err := d.close(); err != nil { // drains the alert sink
				t.Fatal(err)
			}
			for i := 0; i < streams; i++ {
				id := streamSession(i)
				g, w := got[id], want[id]
				sort.SliceStable(g, func(a, b int) bool { return g[a].Seq < g[b].Seq })
				if len(g) != len(w) {
					t.Errorf("%s: %d alerts through the fleet, %d through the Monitor", id, len(g), len(w))
					continue
				}
				for k := range w {
					if g[k].Seq != w[k].Seq || g[k].Flag != w[k].Flag ||
						math.Float64bits(g[k].Score) != math.Float64bits(w[k].Score) {
						t.Errorf("%s alert %d: fleet %v seq=%d score=%v, Monitor %v seq=%d score=%v",
							id, k, g[k].Flag, g[k].Seq, g[k].Score, w[k].Flag, w[k].Seq, w[k].Score)
					}
				}
			}
		})
	}
}
