package tenant

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"adprom/internal/profile"
	"adprom/internal/trace"
)

// watchInterval is the poll interval of the watchers these tests run.
const watchInterval = 5 * time.Millisecond

// watch runs reg.Watch over r until the returned stop is called (or the test
// ends), sending each report to the returned channel.
func watch(t *testing.T, reg *Registry, r *Router) (<-chan Swap, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	swaps := make(chan Swap, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		reg.Watch(ctx, watchInterval, r, func(sw Swap) {
			select {
			case swaps <- sw:
			case <-ctx.Done():
			}
		})
	}()
	stop := func() { cancel(); <-done }
	t.Cleanup(stop)
	return swaps, stop
}

func nextSwap(t *testing.T, swaps <-chan Swap) Swap {
	t.Helper()
	select {
	case sw := <-swaps:
		return sw
	case <-time.After(10 * time.Second):
		t.Fatal("the watcher reported nothing within 10s")
		return Swap{}
	}
}

// encode returns p's saved bytes, what Publish takes.
func encode(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withThreshold returns a copy of p, through a save/load round trip, whose
// detection threshold is thr.
func withThreshold(t *testing.T, p *profile.Profile, thr float64) *profile.Profile {
	t.Helper()
	q, err := profile.Load(bytes.NewReader(encode(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	q.Threshold = thr
	return q
}

func publish(t *testing.T, reg *Registry, tenant string, p *profile.Profile) Entry {
	t.Helper()
	e, err := reg.Publish(tenant, encode(t, p), "test")
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// settle publishes two generations to the resident beacon tenant and waits
// for both to go live. The watcher has then made at least one full pass over
// the resident tenants that began after settle was called, so a test can
// assert what the watcher did not do. settle returns the other tenants'
// reports it received meanwhile.
func settle(t *testing.T, reg *Registry, swaps <-chan Swap, beacon string, p *profile.Profile) []Swap {
	t.Helper()
	var others []Swap
	for i := 0; i < 2; i++ {
		e := publish(t, reg, beacon, p)
		for {
			sw := nextSwap(t, swaps)
			if sw.Tenant == beacon && sw.Entry.Generation == e.Generation {
				break
			}
			others = append(others, sw)
		}
	}
	return others
}

// TestWatchServesOnlyManifestGenerations holds the watcher to the lineage
// manifest: a profile file copied into the lineage directory never goes
// live, a published generation does (one swap), and a generation whose file
// was substituted after publishing is refused by the watcher, once, with
// exactly the error the loader gives for it.
func TestWatchServesOnlyManifestGenerations(t *testing.T) {
	p, traces := trainAppH(t)
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(Config{Loader: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []string{"apph", "beacon"} {
		publish(t, reg, id, p)
		if err := r.ObserveTraced(trace.Context{}, id, "s", traces[0]); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := r.Shard("apph")
	if err != nil {
		t.Fatal(err)
	}
	lineage := filepath.Join(reg.Dir(), "apph")
	gen1, err := os.ReadFile(filepath.Join(lineage, "gen-000001.adprof"))
	if err != nil {
		t.Fatal(err)
	}

	swaps, stop := watch(t, reg, r)
	if err := os.WriteFile(filepath.Join(lineage, "stray.adprof"), gen1, 0o644); err != nil {
		t.Fatal(err)
	}
	if others := settle(t, reg, swaps, "beacon", p); len(others) != 0 {
		t.Fatalf("a stray file was reported: %+v", others)
	}
	if g := sh.Runtime().Generation(); g != 1 {
		t.Fatalf("a stray file moved apph to runtime generation %d", g)
	}

	thr2 := p.Threshold - 1
	publish(t, reg, "apph", withThreshold(t, p, thr2))
	sw := nextSwap(t, swaps)
	if sw.Err != nil || sw.Tenant != "apph" || sw.Entry.Generation != 2 || sw.Generation != 2 || sw.Threshold != thr2 {
		t.Fatalf("publishing generation 2 reported %+v", sw)
	}
	if got := sh.Runtime().Profile().Threshold; got != thr2 {
		t.Fatalf("apph serves threshold %v after the swap, want %v", got, thr2)
	}
	stop()

	// Generation 3 is published, then its file is overwritten with
	// generation 1's bytes: a valid profile the manifest does not vouch for.
	publish(t, reg, "apph", withThreshold(t, p, p.Threshold-2))
	if err := os.WriteFile(filepath.Join(lineage, "gen-000003.adprof"), gen1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, loadErr := reg.LoadTenant("apph")
	if !errors.Is(loadErr, profile.ErrCorrupt) {
		t.Fatalf("loader on a substituted file: %v, want ErrCorrupt", loadErr)
	}
	swaps, _ = watch(t, reg, r)
	sw = nextSwap(t, swaps)
	if sw.Tenant != "apph" || sw.Entry.Generation != 3 || sw.Err == nil || sw.Err.Error() != loadErr.Error() {
		t.Fatalf("watcher on a substituted file reported %+v, want the loader's refusal %q", sw, loadErr)
	}
	if others := settle(t, reg, swaps, "beacon", p); len(others) != 0 {
		t.Fatalf("the refused generation was reported again: %+v", others)
	}
	st, _ := r.TenantStats("apph")
	if st.Runtime.Swaps != 1 || st.Runtime.Generation != 2 || sh.Runtime().Profile().Threshold != thr2 {
		t.Fatalf("apph after the refusal: %d swaps, runtime generation %d, threshold %v; want 1, 2, %v",
			st.Runtime.Swaps, st.Runtime.Generation, sh.Runtime().Profile().Threshold, thr2)
	}
}

// TestWatchLeavesColdTenantsCold: with one resident slot, publishing into a
// cold tenant's lineage neither loads it nor evicts the resident one, and
// the cold tenant's next load serves the new generation.
func TestWatchLeavesColdTenantsCold(t *testing.T) {
	p, traces := trainAppH(t)
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "a", p)
	publish(t, reg, "b", p)
	r, err := NewRouter(Config{Loader: reg, MaxActive: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []string{"a", "b"} {
		if err := r.ObserveTraced(trace.Context{}, id, "s", traces[0]); err != nil {
			t.Fatal(err)
		}
	}
	before := r.Stats()
	if before.Loads != 2 || before.Evictions != 1 {
		t.Fatalf("router stats after a then b: %+v", before)
	}

	swaps, _ := watch(t, reg, r)
	thrA := p.Threshold - 1
	publish(t, reg, "a", withThreshold(t, p, thrA))
	// b's swap is the barrier: the watcher read b's manifest after a's
	// generation 2 was published.
	publish(t, reg, "b", withThreshold(t, p, p.Threshold-3))
	if sw := nextSwap(t, swaps); sw.Tenant != "b" || sw.Err != nil || sw.Entry.Generation != 2 {
		t.Fatalf("first report %+v, want b's generation 2 live", sw)
	}
	if after := r.Stats(); after.Loads != before.Loads || after.Evictions != before.Evictions {
		t.Fatalf("publishing into cold a moved the router from %+v to %+v", before, after)
	}
	if got := r.Tenants(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("resident after the publishes: %v, want [b]", got)
	}

	sh, err := r.Shard("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Runtime().Profile().Threshold; got != thrA {
		t.Fatalf("reloaded a serves threshold %v, want generation 2's %v", got, thrA)
	}
	// The load recorded generation 2 as served, so the next report is
	// generation 3's, not a second swap onto generation 2.
	publish(t, reg, "a", p)
	if sw := nextSwap(t, swaps); sw.Tenant != "a" || sw.Err != nil || sw.Entry.Generation != 3 || sw.Generation != 2 {
		t.Fatalf("after reloading a at generation 2 and publishing 3, the watcher reported %+v", sw)
	}
}

// TestInterruptedPublishLeavesGenerationOneLive: a publish killed between
// writing a temp file and renaming it leaves a .gen-*.tmp-* or
// .manifest.json.tmp-* file in the lineage. Neither is a generation: the
// loader serves generation 1, the watcher swaps and reports nothing, and the
// next publish becomes generation 2 and goes live.
func TestInterruptedPublishLeavesGenerationOneLive(t *testing.T) {
	p, traces := trainAppH(t)
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "apph", p)
	publish(t, reg, "beacon", p)

	// The leftovers of a generation-2 publish: half its profile file, and a
	// whole manifest naming it.
	lineage := filepath.Join(reg.Dir(), "apph")
	gen2 := encode(t, withThreshold(t, p, p.Threshold-1))
	info, _, err := profile.Inspect(bytes.NewReader(gen2))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := reg.Entries("apph")
	if err != nil {
		t.Fatal(err)
	}
	entries = append(entries, Entry{
		Generation: 2, Source: "test", Checksum: info.Checksum, File: "gen-000002.adprof", Program: p.Program,
	})
	manifest, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		".gen-000002.adprof.tmp-2718281828": gen2[:len(gen2)/2],
		".manifest.json.tmp-3141592653":     manifest,
	} {
		if err := os.WriteFile(filepath.Join(lineage, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	loaded, err := reg.LoadTenant("apph")
	if err != nil || loaded.Threshold != p.Threshold {
		t.Fatalf("loader beside the leftovers: %v; want generation 1's threshold %v", err, p.Threshold)
	}
	r, err := NewRouter(Config{Loader: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []string{"apph", "beacon"} {
		if err := r.ObserveTraced(trace.Context{}, id, "s", traces[0]); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := r.Shard("apph")
	if err != nil {
		t.Fatal(err)
	}
	swaps, _ := watch(t, reg, r)
	if others := settle(t, reg, swaps, "beacon", p); len(others) != 0 {
		t.Fatalf("the leftovers were reported: %+v", others)
	}
	if g, thr := sh.Runtime().Generation(), sh.Runtime().Profile().Threshold; g != 1 || thr != p.Threshold {
		t.Fatalf("apph at runtime generation %d, threshold %v beside the leftovers; want 1, %v", g, thr, p.Threshold)
	}

	thr2 := p.Threshold - 2
	if e := publish(t, reg, "apph", withThreshold(t, p, thr2)); e.Generation != 2 {
		t.Fatalf("the publish after the interrupted one is generation %d, want 2", e.Generation)
	}
	if sw := nextSwap(t, swaps); sw.Err != nil || sw.Tenant != "apph" || sw.Entry.Generation != 2 || sw.Threshold != thr2 {
		t.Fatalf("publishing generation 2 reported %+v", sw)
	}
	if got := sh.Runtime().Profile().Threshold; got != thr2 {
		t.Fatalf("apph serves threshold %v, want generation 2's %v", got, thr2)
	}
}

// TestRegistryUnknownTenantsLeaveNothing: tenant ids arrive over the wire,
// so routing ids that name no lineage must leave the store as it was.
func TestRegistryUnknownTenantsLeaveNothing(t *testing.T) {
	p, traces := trainAppH(t)
	root := t.TempDir()
	reg, err := OpenRegistry(root)
	if err != nil {
		t.Fatal(err)
	}
	publish(t, reg, "apph", p)
	r, err := NewRouter(Config{Loader: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 100; i++ {
		err := r.ObserveTraced(trace.Context{}, fmt.Sprintf("ghost-%03d", i), "s", traces[0])
		if !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("ghost-%03d: %v, want ErrUnknownTenant", i, err)
		}
	}
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "apph" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("store root after 100 unknown tenants holds %d entries (%.5v...), want only apph", len(names), names)
	}
}
