package retain

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// rec is the record type the Log tests retain.
type rec struct {
	src   string
	seq   int
	alert bool
}

// offer applies the log's policy to one record the way its callers do:
// admit, then store. It reports whether the record was kept.
func offer(l *Log[rec], r rec) bool {
	if !l.Admit(r.alert) {
		return false
	}
	l.Add(r, r.alert)
	return true
}

func seqs(rs []rec) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.seq
	}
	return out
}

func TestRingEvictsOldestFirst(t *testing.T) {
	r := NewRing[string](3)
	for _, l := range []string{"a", "b", "c"} {
		if _, evicted := r.Push(l); evicted {
			t.Fatalf("eviction before the ring was full (adding %s)", l)
		}
	}
	if old, evicted := r.Push("d"); !evicted || old != "a" {
		t.Fatalf("full ring evicted (%q, %v), want (\"a\", true)", old, evicted)
	}
	got := r.Snapshot()
	want := []string{"b", "c", "d"}
	if !reflect.DeepEqual(got, want) || r.Len() != 3 {
		t.Fatalf("snapshot %v (len %d), want %v oldest first", got, r.Len(), want)
	}
}

// TestLogEvictsAlertsOldestFirst interleaves healthy records 0 and 2 with
// alerts 1, 3, 4, 5 and 6 at capacity 4. The alert class must keep its
// newest four alerts: a policy that evicts by slot once every slot holds an
// alert keeps 6, 5, 3 and 1 instead, losing alert 4.
func TestLogEvictsAlertsOldestFirst(t *testing.T) {
	l := NewLog[rec](4, 1)
	for i := 0; i <= 6; i++ {
		offer(l, rec{seq: i, alert: i != 0 && i != 2})
	}
	if got, want := seqs(l.Newest(0)), []int{6, 5, 4, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("retained %v, want %v", got, want)
	}
}

func TestLogAlertsSurviveHealthyChurn(t *testing.T) {
	l := NewLog[rec](4, 1)
	offer(l, rec{src: "the-alert", alert: true})
	for i := 0; i < 10_000; i++ {
		offer(l, rec{seq: i})
	}
	if _, ok := l.Find(func(r *rec) bool { return r.src == "the-alert" }); !ok {
		t.Fatal("alert evicted by healthy churn")
	}
	if got := len(l.Newest(0)); got != 5 { // 4 healthy + 1 alert
		t.Fatalf("retained %d, want 5", got)
	}
}

// TestLogClassesAreFIFO checks that each class keeps exactly its newest
// capacity records and that reads merge the two classes newest first by
// commit order, with limit truncating from the newest end.
func TestLogClassesAreFIFO(t *testing.T) {
	const capacity = 5
	l := NewLog[rec](capacity, 1)
	var healthy, alerts []int
	for i := 0; i < 37; i++ {
		alert := i%3 == 0 || i%7 == 0
		offer(l, rec{seq: i, alert: alert})
		if alert {
			alerts = append(alerts, i)
		} else {
			healthy = append(healthy, i)
		}
	}
	keep := map[int]bool{}
	for _, s := range append(healthy[len(healthy)-capacity:], alerts[len(alerts)-capacity:]...) {
		keep[s] = true
	}
	var want []int
	for i := 36; i >= 0; i-- {
		if keep[i] {
			want = append(want, i)
		}
	}
	if got := seqs(l.Newest(0)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Newest(0) = %v, want %v", got, want)
	}
	if got := seqs(l.Newest(3)); !reflect.DeepEqual(got, want[:3]) {
		t.Fatalf("Newest(3) = %v, want %v", got, want[:3])
	}
	if got := len(l.Newest(100)); got != 2*capacity {
		t.Fatalf("Newest(100) returned %d, want %d", got, 2*capacity)
	}
	if l.Kept() != 37 || l.SampledOut() != 0 {
		t.Fatalf("kept %d sampled out %d, want 37 and 0", l.Kept(), l.SampledOut())
	}
}

func TestLogFindReturnsNewestMatch(t *testing.T) {
	l := NewLog[rec](8, 1)
	offer(l, rec{src: "dup", seq: 1, alert: true})
	offer(l, rec{src: "dup", seq: 2})
	offer(l, rec{src: "other", seq: 3})
	if r, ok := l.Find(func(r *rec) bool { return r.src == "dup" }); !ok || r.seq != 2 {
		t.Fatalf("Find = %+v, %v; want the newest match, seq 2", r, ok)
	}
	if _, ok := l.Find(func(r *rec) bool { return r.src == "absent" }); ok {
		t.Fatal("Find matched an absent record")
	}
}

func TestNilLogIsInert(t *testing.T) {
	for _, l := range []*Log[rec]{nil, NewLog[rec](0, 1), NewLog[rec](-1, 4)} {
		if l != nil {
			t.Fatal("capacity ≤ 0 must return a nil log")
		}
		if l.Admit(true) || l.Admit(false) {
			t.Fatal("nil log admitted a record")
		}
		l.Add(rec{alert: true}, true)
		if l.Newest(0) != nil || l.Kept() != 0 || l.SampledOut() != 0 {
			t.Fatal("nil log holds or counts records")
		}
		if _, ok := l.Find(func(*rec) bool { return true }); ok {
			t.Fatal("nil log found a record")
		}
	}
}

// TestLogKeepAlertsPropertyConcurrent drives the log with concurrent
// writers and checks the two documented properties hold under contention
// (run it with -race):
//
//  1. Keep-alerts eviction: an alert is only ever evicted by newer alerts.
//     The workload writes fewer alerts than the alert class's capacity, so
//     every single alert — from every session — must survive, even though
//     an order of magnitude more healthy records were committed after them
//     and churned through the healthy class.
//  2. Sampling ratio: the 1-in-N gate is one shared atomic counter, so
//     across any interleaving exactly ⌊U/N⌋±1 of U healthy offers are kept
//     and the rest are counted as sampled out.
//
// A second, deterministic phase then floods the log with alerts alone to
// pin down the only legal alert eviction: older alerts yield to newer ones,
// while the healthy class is untouched.
func TestLogKeepAlertsPropertyConcurrent(t *testing.T) {
	const (
		capacity  = 128
		every     = 4
		writers   = 8
		perWriter = 512
		flagEvery = 64 // writers*perWriter/flagEvery = 64 alerts < capacity
	)
	l := NewLog[rec](capacity, every)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				offer(l, rec{src: fmt.Sprintf("w%d", g), seq: i, alert: i%flagEvery == flagEvery-1})
			}
		}(g)
	}
	wg.Wait()

	const (
		total        = writers * perWriter
		flaggedTotal = writers * (perWriter / flagEvery)
		unflagged    = total - flaggedTotal
	)

	// Every offer was either kept or counted as sampled out.
	kept, sampledOut := int(l.Kept()), int(l.SampledOut())
	if kept+sampledOut != total {
		t.Errorf("kept %d + sampled out %d = %d, want %d", kept, sampledOut, kept+sampledOut, total)
	}

	// Property 2 — the shared gate keeps exactly one in `every` healthy
	// offers, ±1 for where the counter started relative to the modulus.
	keptUnflagged := kept - flaggedTotal
	if want := unflagged / every; keptUnflagged < want-1 || keptUnflagged > want+1 {
		t.Errorf("kept %d healthy records, want %d±1 (gate is exact under contention)", keptUnflagged, want)
	}

	// Property 1 — all 64 alerts are retained, beside a full healthy class
	// of the newest of the ~900 kept healthy records.
	ds := l.Newest(0)
	if len(ds) != capacity+flaggedTotal {
		t.Fatalf("log retained %d records, want %d (a full healthy class plus every alert)", len(ds), capacity+flaggedTotal)
	}
	surviving := map[string]bool{}
	unflaggedSurvivors := 0
	for _, d := range ds {
		if d.alert {
			surviving[fmt.Sprintf("%s/%d", d.src, d.seq)] = true
		} else {
			unflaggedSurvivors++
		}
	}
	for g := 0; g < writers; g++ {
		for i := flagEvery - 1; i < perWriter; i += flagEvery {
			if key := fmt.Sprintf("w%d/%d", g, i); !surviving[key] {
				t.Errorf("alert %s was evicted while %d healthy records survive", key, unflaggedSurvivors)
			}
		}
	}
	if unflaggedSurvivors != capacity {
		t.Errorf("%d healthy survivors, want the healthy class's capacity %d", unflaggedSurvivors, capacity)
	}

	// Phase 2 — the only way to evict an alert: newer alerts. 2×capacity
	// alert-only writes cycle the alert class twice, so it ends holding
	// exactly the newest `capacity` flood alerts.
	for i := 0; i < 2*capacity; i++ {
		offer(l, rec{src: "flood", seq: 1_000_000 + i, alert: true})
	}
	ds = l.Newest(0)
	if len(ds) != 2*capacity {
		t.Fatalf("post-flood log retained %d, want %d", len(ds), 2*capacity)
	}
	alerts := 0
	for _, d := range ds {
		if !d.alert {
			continue
		}
		alerts++
		if d.src != "flood" {
			t.Fatalf("post-flood log kept alert %s/%d; an alert flood of twice the capacity must leave only flood alerts", d.src, d.seq)
		}
		if d.seq < 1_000_000+capacity {
			t.Errorf("flood alert seq %d survived; the alert class should keep only the newest %d", d.seq, capacity)
		}
	}
	if alerts != capacity {
		t.Errorf("post-flood log holds %d alerts, want %d", alerts, capacity)
	}
}

func TestLogConcurrent(t *testing.T) {
	l := NewLog[rec](256, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				offer(l, rec{src: fmt.Sprintf("s%d", g), seq: i, alert: i%10 == 0})
			}
		}(g)
	}
	wg.Wait()
	// 8000 records: 800 alerts always kept; 7200 healthy through a 1-in-4
	// gate. The gate is a shared counter, so exactly a quarter of the
	// healthy offers pass.
	kept, sampledOut := l.Kept(), l.SampledOut()
	if kept+sampledOut != 8000 {
		t.Errorf("kept %d + sampled out %d = %d, want 8000", kept, sampledOut, kept+sampledOut)
	}
	if kept < 800 {
		t.Errorf("kept %d < 800 alerts that must all be kept", kept)
	}
	if n := len(l.Newest(0)); n != 512 {
		t.Errorf("log retained %d, want both classes full, 2×256", n)
	}
}
