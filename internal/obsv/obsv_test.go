package obsv

import (
	"testing"

	"adprom/internal/retain"
)

// The decision log is a retain.Log of Decisions. These tests pin the policy
// the runtime relies on for Decision records; the log's concurrency and
// eviction properties are tested in internal/retain.

// record applies the decision log's policy to one decision the way the
// runtime does, and reports whether it was kept.
func record(l *retain.Log[Decision], d Decision) bool {
	if !l.Admit(d.Flagged) {
		return false
	}
	l.Add(d, d.Flagged)
	return true
}

func TestRecorderDisabled(t *testing.T) {
	var nilLog *retain.Log[Decision]
	if nilLog.Newest(10) != nil {
		t.Error("nil log must return no decisions")
	}

	r := retain.NewLog[Decision](0, 1)
	if r != nil {
		t.Error("capacity 0 must disable recording")
	}
	if record(r, Decision{Flagged: true}) {
		t.Error("disabled log must not keep decisions")
	}
	if r.Kept() != 0 {
		t.Error("disabled log must count nothing")
	}
}

func TestRecorderKeepsEveryAlert(t *testing.T) {
	r := retain.NewLog[Decision](8, 100) // aggressive sampling, but alerts bypass the gate
	for i := 0; i < 5; i++ {
		if !record(r, Decision{Session: "s", Seq: i, Flagged: true, Flag: "DL"}) {
			t.Fatalf("alert %d was sampled out", i)
		}
	}
	if got := r.Kept(); got != 5 {
		t.Errorf("recorded = %d, want 5", got)
	}
	ds := r.Newest(0)
	if len(ds) != 5 {
		t.Fatalf("retained %d decisions, want 5", len(ds))
	}
	// Newest first.
	for i, d := range ds {
		if want := 4 - i; d.Seq != want {
			t.Errorf("decision %d has seq %d, want %d", i, d.Seq, want)
		}
	}
}

func TestRecorderSamplesUnflagged(t *testing.T) {
	const every = 16
	r := retain.NewLog[Decision](1024, every)
	for i := 0; i < 160; i++ {
		record(r, Decision{Seq: i})
	}
	if got := r.Kept(); got != 160/every {
		t.Errorf("recorded = %d, want %d", got, 160/every)
	}
	if got := r.SampledOut(); got != 160-160/every {
		t.Errorf("skipped = %d, want %d", got, 160-160/every)
	}

	// sampleEvery ≤ 1 keeps everything.
	all := retain.NewLog[Decision](1024, 1)
	for i := 0; i < 10; i++ {
		if !record(all, Decision{Seq: i}) {
			t.Fatalf("sampleEvery=1 dropped decision %d", i)
		}
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	r := retain.NewLog[Decision](4, 1)
	for i := 0; i < 10; i++ {
		record(r, Decision{Seq: i})
	}
	ds := r.Newest(0)
	if len(ds) != 4 {
		t.Fatalf("retained %d decisions, want capacity 4", len(ds))
	}
	for i, d := range ds {
		if want := 9 - i; d.Seq != want {
			t.Errorf("decision %d has seq %d, want %d", i, d.Seq, want)
		}
	}
	// A limit below retention truncates from the newest end.
	if got := r.Newest(2); len(got) != 2 || got[0].Seq != 9 || got[1].Seq != 8 {
		t.Errorf("Newest(2) = %+v, want seqs [9 8]", got)
	}
	// A limit above retention returns what exists.
	if got := r.Newest(100); len(got) != 4 {
		t.Errorf("Newest(100) returned %d, want 4", len(got))
	}
}
